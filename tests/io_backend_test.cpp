// Backend-equivalence tests for the I/O engine layer (src/io/): the whole
// 70-script crossval catalog runs under BOTH backends (poll and io_uring)
// at k in {1, 4} from a real file descriptor source — so source reads AND
// spill I/O route through the engine under test — and every run must be
// byte-identical to the serial oracle. A telemetry leg reconciles the
// per-node counters across backends (bytes/records are deterministic and
// must match exactly; sqe_batches/cqe_waits are uring-only and must stay
// zero on poll), and a static-analysis leg pins the check::analyze RSS
// model as backend-independent: switching the syscall strategy must not
// move the memory model. The uring legs skip with a logged reason when the
// kernel probe fails.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_support/catalog.h"
#include "check/check.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "io/engine.h"
#include "unixcmd/registry.h"
#include "exec_oracle.h"

namespace kq {
namespace {

synth::SynthesisCache& shared_cache() {
  static synth::SynthesisCache c;
  return c;
}

vfs::Vfs& shared_fs() {
  static vfs::Vfs v;
  return v;
}

// An unlinked temp file holding `content`; rewind() re-arms it for the
// next run (the engines read via file-position semantics, so a reset
// offset replays the same stream).
class FdInput {
 public:
  explicit FdInput(const std::string& content) {
    char path[] = "/tmp/kq-io-backend-XXXXXX";
    fd_ = ::mkstemp(path);
    EXPECT_GE(fd_, 0);
    ::unlink(path);
    EXPECT_EQ(::write(fd_, content.data(), content.size()),
              static_cast<ssize_t>(content.size()));
  }
  ~FdInput() {
    if (fd_ >= 0) ::close(fd_);
  }
  int rewind() {
    EXPECT_EQ(::lseek(fd_, 0, SEEK_SET), 0);
    return fd_;
  }

 private:
  int fd_ = -1;
};

std::vector<io::Backend> available_backends() {
  std::vector<io::Backend> backends{io::Backend::kPoll};
  if (io::uring_supported()) backends.push_back(io::Backend::kUring);
  return backends;
}

kq::ExecOptions backend_options(io::Backend backend, int k,
                                std::size_t spill_threshold = 64 << 20) {
  kq::ExecOptions o;
  o.mode = kq::ExecMode::kStream;
  o.parallelism = k;
  o.block_size = 2048;
  o.spill_threshold = spill_threshold;
  o.io_backend = backend;
  return o;
}

// ------------------------------------------------------- catalog crossval --

class IoBackendCrossval
    : public ::testing::TestWithParam<const bench::Script*> {};

TEST_P(IoBackendCrossval, PollAndUringAreByteIdenticalToSerial) {
  const bench::Script& script = *GetParam();
  std::string input = bench::prepare_input(script, 24 * 1024, 7, shared_fs());
  if (!io::uring_supported())
    std::fprintf(stderr,
                 "io_backend_test: io_uring unavailable on this kernel; "
                 "crossval covers poll only\n");

  for (const std::string& pipeline : script.pipelines) {
    auto parsed = compile::parse_pipeline(pipeline);
    ASSERT_TRUE(parsed.has_value()) << pipeline;
    compile::Plan plan =
        compile::compile_pipeline(*parsed, shared_cache(), {}, &shared_fs());
    compile::eliminate_intermediate_combiners(plan);
    auto stages = compile::lower_plan(plan);

    std::string serial = serial_output(stages, input);
    FdInput fd(input);
    for (io::Backend backend : available_backends()) {
      for (int k : {1, 4}) {
        kq::Executor executor(backend_options(backend, k));
        kq::ExecResult r = executor.run_collect(
            stages, kq::Source::from_fd(fd.rewind()));
        ASSERT_TRUE(r.ok) << pipeline << " backend="
                          << io::backend_name(backend) << " k=" << k << ": "
                          << r.error;
        EXPECT_EQ(r.io_backend, io::backend_name(backend));
        EXPECT_EQ(r.output, serial)
            << script.suite << "/" << script.name << ": " << pipeline
            << " backend=" << io::backend_name(backend) << " k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScripts, IoBackendCrossval,
    ::testing::ValuesIn([] {
      std::vector<const bench::Script*> ptrs;
      for (const bench::Script& s : bench::all_scripts()) ptrs.push_back(&s);
      return ptrs;
    }()),
    [](const ::testing::TestParamInfo<const bench::Script*>& info) {
      std::string name = info.param->suite + "_" + info.param->name;
      std::string out;
      for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      return out;
    });

// ------------------------------------------------- counter reconciliation --

std::vector<exec::ExecStage> compile_stages(const std::string& pipeline) {
  auto parsed = compile::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value()) << pipeline;
  compile::Plan plan = compile::compile_pipeline(*parsed, shared_cache(), {});
  compile::rewrite_bounded_windows(plan);
  compile::eliminate_intermediate_combiners(plan);
  return compile::lower_plan(plan);
}

std::string crossval_input(int n) {
  std::string out;
  for (int i = 0; i < n; ++i)
    out += "w-" + std::to_string(i * 2654435761u % 977) + "\n";
  return out;
}

TEST(IoBackendCounters, TelemetryReconcilesAcrossBackends) {
  auto stages = compile_stages("sort | uniq -c");
  const std::string input = crossval_input(4000);
  FdInput fd(input);

  std::vector<kq::ExecResult> results;
  for (io::Backend backend : available_backends()) {
    kq::ExecOptions options =
        backend_options(backend, 2, /*spill_threshold=*/4096);
    options.stats = true;
    kq::Executor executor(options);
    kq::ExecResult r =
        executor.run_collect(stages, kq::Source::from_fd(fd.rewind()));
    ASSERT_TRUE(r.ok) << io::backend_name(backend) << ": " << r.error;
    // The whole input went through on every backend.
    EXPECT_EQ(r.bytes_read, input.size()) << io::backend_name(backend);
    for (const stream::NodeMetrics& n : r.nodes) {
      if (backend == io::Backend::kPoll) {
        // The submission counters are io_uring-only by contract.
        EXPECT_EQ(n.sqe_batches, 0u) << n.commands;
        EXPECT_EQ(n.cqe_waits, 0u) << n.commands;
      }
    }
    if (backend == io::Backend::kUring) {
      // Forced spilling routed writes through the ring somewhere: at least
      // one node must show submission activity.
      std::uint64_t total_batches = 0;
      for (const stream::NodeMetrics& n : r.nodes)
        total_batches += n.sqe_batches;
      EXPECT_GT(total_batches, 0u);
    }
    results.push_back(std::move(r));
  }
  if (results.size() < 2) {
    GTEST_SKIP() << "io_uring unavailable on this kernel; nothing to "
                    "reconcile against poll";
  }
  // Deterministic per-node counters must agree exactly between backends:
  // the engine changes *how* bytes move, never how many or where.
  const kq::ExecResult& poll = results[0];
  const kq::ExecResult& uring = results[1];
  ASSERT_EQ(poll.nodes.size(), uring.nodes.size());
  EXPECT_EQ(poll.output, uring.output);
  EXPECT_EQ(poll.spilled_bytes, uring.spilled_bytes);
  for (std::size_t i = 0; i < poll.nodes.size(); ++i) {
    EXPECT_EQ(poll.nodes[i].records_in, uring.nodes[i].records_in)
        << poll.nodes[i].commands;
    EXPECT_EQ(poll.nodes[i].records_out, uring.nodes[i].records_out)
        << poll.nodes[i].commands;
    EXPECT_EQ(poll.nodes[i].in_bytes, uring.nodes[i].in_bytes)
        << poll.nodes[i].commands;
    EXPECT_EQ(poll.nodes[i].out_bytes, uring.nodes[i].out_bytes)
        << poll.nodes[i].commands;
    EXPECT_EQ(poll.nodes[i].spilled_bytes, uring.nodes[i].spilled_bytes)
        << poll.nodes[i].commands;
  }
}

// ------------------------------------------------ rss model independence --

TEST(IoBackendCheck, RssModelIsBackendIndependent) {
  // The static analyzer models node residency from the plan alone — the
  // I/O backend moves syscalls, not memory classes. Pin that: the report
  // (including every stage's rss_model) is identical no matter which
  // backend the environment selects.
  auto parsed = compile::parse_pipeline("tr A-Z a-z | sort | uniq -c");
  ASSERT_TRUE(parsed.has_value());
  compile::Plan plan = compile::compile_pipeline(*parsed, shared_cache(), {});
  compile::rewrite_bounded_windows(plan);
  compile::eliminate_intermediate_combiners(plan);
  auto stages = compile::lower_plan(plan);

  auto analyze_with_env = [&](const char* backend) {
    ::setenv("KQ_IO_BACKEND", backend, 1);
    check::Report report = check::analyze(plan, stages, {});
    ::unsetenv("KQ_IO_BACKEND");
    return report;
  };
  check::Report under_poll = analyze_with_env("poll");
  check::Report under_uring = analyze_with_env("uring");
  ASSERT_EQ(under_poll.stages.size(), under_uring.stages.size());
  for (std::size_t i = 0; i < under_poll.stages.size(); ++i) {
    EXPECT_EQ(under_poll.stages[i].rss_model,
              under_uring.stages[i].rss_model)
        << "stage " << i;
  }
  EXPECT_EQ(under_poll.diagnostics.size(), under_uring.diagnostics.size());
}

}  // namespace
}  // namespace kq
