#include "exec/executor.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

#include "exec/parallel.h"
#include "exec/splitter.h"
#include "stream/block_reader.h"

namespace kq {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The staged batch runner (kBatch). Mirrors the paper's evaluation
// infrastructure (§4): every stage executes to completion before the next
// starts, each parallelizable stage fans out to `parallelism` instances of
// the original command, and (in optimized mode) stages whose combiner was
// eliminated stream their output substreams directly into the next
// parallel stage.
ExecResult run_batch(const std::vector<exec::ExecStage>& stages,
                     std::string_view input, exec::ThreadPool& pool,
                     int parallelism, bool use_elimination) {
  ExecResult result;
  auto total_start = Clock::now();

  // The in-flight data is either one combined stream or a set of
  // substreams left uncombined by an eliminated combiner.
  std::string current(input);
  std::vector<std::string> substreams;
  bool split_state = false;

  for (std::size_t s = 0; s < stages.size(); ++s) {
    const exec::ExecStage& stage = stages[s];
    stream::NodeMetrics m;
    m.commands = stage.command->display_name();
    m.combiner = stage.combiner_name;
    m.parallel = stage.parallel && parallelism > 1;
    auto stage_start = Clock::now();

    if (!m.parallel) {
      // Sequential stage. If substreams are pending, they came from an
      // eliminated concat combiner, so plain concatenation restores the
      // combined stream.
      if (split_state) {
        current.clear();
        for (const std::string& part : substreams) current += part;
        substreams.clear();
        split_state = false;
      }
      m.in_bytes = current.size();
      current = stage.command->run(current);
      m.out_bytes = current.size();
      m.chunks = 1;
    } else {
      std::vector<std::string_view> chunks;
      if (split_state) {
        chunks.reserve(substreams.size());
        for (const std::string& part : substreams) chunks.push_back(part);
      } else {
        chunks = exec::split_stream(current, parallelism);
      }
      m.in_bytes = 0;
      for (std::string_view c : chunks) m.in_bytes += c.size();
      m.chunks = static_cast<int>(chunks.size());

      std::vector<std::string> outputs =
          exec::map_chunks(*stage.command, chunks, pool);

      bool can_eliminate = use_elimination && stage.eliminate_combiner &&
                           s + 1 < stages.size() && stages[s + 1].parallel &&
                           parallelism > 1;
      if (can_eliminate) {
        m.combiner_eliminated = true;
        m.out_bytes = 0;
        for (const std::string& o : outputs) m.out_bytes += o.size();
        substreams = std::move(outputs);
        split_state = true;
        current.clear();
      } else {
        std::optional<std::string> combined;
        if (stage.combine) combined = stage.combine(outputs);
        if (!combined) {
          // Correctness guard: if k-way combination is undefined on these
          // outputs, fall back to running the stage serially.
          m.combine_fallback = true;
          std::string joined;
          for (std::string_view c : chunks) joined.append(c);
          combined = stage.command->run(joined);
        }
        substreams.clear();
        split_state = false;
        current = std::move(*combined);
        m.out_bytes = current.size();
      }
    }
    m.seconds = seconds_since(stage_start);
    result.nodes.push_back(std::move(m));
  }

  if (split_state) {
    // Pipeline ended while substreams were pending (the planner avoids
    // this, but a trailing eliminated stage still needs its concat).
    current.clear();
    for (const std::string& part : substreams) current += part;
  }
  result.output = std::move(current);
  result.seconds = seconds_since(total_start);
  return result;
}

// The serial reference (kSerial): every stage whole-stream, no
// parallelism. Every other mode is tested byte-for-byte against it.
ExecResult run_serial(const std::vector<exec::ExecStage>& stages,
                      std::string_view input) {
  ExecResult result;
  auto total_start = Clock::now();
  std::string current(input);
  for (const exec::ExecStage& stage : stages) {
    stream::NodeMetrics m;
    m.commands = stage.command->display_name();
    m.chunks = 1;
    m.in_bytes = current.size();
    auto stage_start = Clock::now();
    current = stage.command->run(current);
    m.seconds = seconds_since(stage_start);
    m.out_bytes = current.size();
    result.nodes.push_back(std::move(m));
  }
  result.output = std::move(current);
  result.seconds = seconds_since(total_start);
  return result;
}

// A stage the registry could not resolve carries no command (see
// compile::lower_plan). Running the plan anyway would drop or corrupt that
// stage's stream, so it is refused before any input is read — the runtime
// side of `kumquat check`'s KQ-EXEC error.
bool refuse_unknown_stage(const std::vector<exec::ExecStage>& stages,
                          ExecResult* result) {
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].command) continue;
    result->ok = false;
    result->refused = true;
    result->error = "[KQ-EXEC] cannot execute unknown stage: stage ";
    result->error += std::to_string(i + 1);
    result->error += " of ";
    result->error += std::to_string(stages.size());
    result->error += " resolves to no built-in command";
    return true;
  }
  return false;
}

// Drains a file descriptor for the batch modes (which need the whole
// input). Returns false on a read error (errno preserved in `err`).
bool slurp_fd(int fd, std::string* out, int* err) {
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out->append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return true;
    if (errno == EINTR) continue;
    *err = errno;
    return false;
  }
}

}  // namespace

int default_parallelism() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return static_cast<int>(std::min(hw, 16u));
}

Executor::Executor(ExecOptions options) : options_(options) {
  if (options_.parallelism <= 0) options_.parallelism = default_parallelism();
}

Executor::~Executor() = default;

exec::ThreadPool& Executor::pool() {
  if (!pool_) pool_ = std::make_unique<exec::ThreadPool>(options_.parallelism);
  return *pool_;
}

ExecResult Executor::run_stream(const std::vector<exec::ExecStage>& stages,
                                Source input, const stream::Sink& sink) {
  ExecResult refused;
  if (refuse_unknown_stage(stages, &refused)) return refused;
  // A record that cannot even be buffered within the spill budget fails
  // loudly (EMSGSIZE) rather than growing the reader without bound.
  const stream::BlockReaderOptions reader_options{
      std::max<std::size_t>(options_.block_size, 1), options_.delimiter,
      options_.spill_threshold};
  // Declared before the reader: an fd reader reads through the engine.
  std::unique_ptr<io::Engine> engine;
  std::unique_ptr<stream::BlockReader> reader;
  switch (input.kind_) {
    case Source::Kind::kFd:
      // The fd source honours the run's backend choice and fault plan, the
      // same IoOptions every spill file of the run is built from.
      engine = io::make_engine({options_.io_backend, options_.fault_plan});
      reader = std::make_unique<stream::BlockReader>(input.fd_, engine.get(),
                                                     reader_options);
      break;
    case Source::Kind::kIstream:
      reader = std::make_unique<stream::BlockReader>(*input.in_,
                                                     reader_options);
      break;
    case Source::Kind::kString:
      reader = std::make_unique<stream::BlockReader>(
          [rest = input.bytes_](char* buf, std::size_t n) mutable {
            std::size_t got = rest.copy(buf, n);
            rest.remove_prefix(got);
            return got;
          },
          reader_options);
      break;
  }
  return stream::run_dataflow(stages, *reader, sink, pool(), options_);
}

ExecResult Executor::run(const std::vector<exec::ExecStage>& stages,
                         Source input, const stream::Sink& sink) {
  // Only a stream run over an fd or istream delivers incrementally. Batch
  // and serial produce their output whole; a string source in stream mode
  // collects too, because its batch fallback replaces the output wholesale
  // and would otherwise duplicate an already-delivered prefix.
  if (options_.mode == ExecMode::kStream &&
      input.kind_ != Source::Kind::kString)
    return run_stream(stages, input, sink);
  ExecResult result = run_collect(stages, input);
  if (result.ok && sink && !sink(result.output)) result.stopped_early = true;
  result.output.clear();
  return result;
}

ExecResult Executor::run(const std::vector<exec::ExecStage>& stages,
                         Source input, std::ostream& output) {
  return run(stages, input, [&output](std::string_view bytes) {
    output.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(output);
  });
}

ExecResult Executor::run_collect(const std::vector<exec::ExecStage>& stages,
                                 Source input) {
  if (options_.mode == ExecMode::kStream) {
    std::string collected;
    ExecResult result =
        run_stream(stages, input, [&collected](std::string_view bytes) {
          collected.append(bytes);
          return true;
        });
    if (!result.ok && result.combine_undefined &&
        input.kind_ == Source::Kind::kString) {
      // The batch runner's combine-fallback guard: incremental combination
      // proved undefined on these chunk outputs, and only the string source
      // still has the whole input at hand to rerun it.
      collected = run_batch(stages, input.bytes_, pool(),
                            options_.parallelism, options_.use_elimination)
                      .output;
      result.ok = true;
      result.error.clear();
      result.batch_fallback = true;
    }
    result.output = std::move(collected);
    return result;
  }

  ExecResult refused;
  if (refuse_unknown_stage(stages, &refused)) return refused;
  // Batch and serial need the whole input resident (that is their memory
  // class); non-string sources are slurped here.
  std::string owned;
  std::string_view bytes;
  switch (input.kind_) {
    case Source::Kind::kString:
      bytes = input.bytes_;
      break;
    case Source::Kind::kIstream: {
      std::ostringstream ss;
      ss << input.in_->rdbuf();
      owned = std::move(ss).str();
      bytes = owned;
      break;
    }
    case Source::Kind::kFd: {
      int err = 0;
      if (!slurp_fd(input.fd_, &owned, &err)) {
        ExecResult failed;
        failed.ok = false;
        failed.error =
            "input read error (errno " + std::to_string(err) + ")";
        return failed;
      }
      bytes = owned;
      break;
    }
  }
  if (options_.mode == ExecMode::kSerial) return run_serial(stages, bytes);
  return run_batch(stages, bytes, pool(), options_.parallelism,
                   options_.use_elimination);
}

}  // namespace kq
