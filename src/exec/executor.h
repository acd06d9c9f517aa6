// The execution facade: the one way to run a lowered pipeline. One options
// struct (ExecOptions), one input shape (Source: a string_view, an istream,
// or a file descriptor) and one result shape (ExecResult, with one
// stream::NodeMetrics row per dataflow node or staged-runner stage). The
// dataflow runtime (stream/dataflow.h) and the staged batch/serial runners
// are its internals.
//
// Mode semantics:
//   kStream (default) — the dataflow runtime: record-aligned blocks,
//     bounded channels, fused stream chains, sharded parallel segments,
//     spill. Memory O(k · window + in-flight budget) regardless of input.
//   kBatch  — the paper's staged runner: input slurped whole, stage
//     barriers, k-way split + combine. Memory O(input).
//   kSerial — the reference: every stage whole-stream, no parallelism.
//
// Parallelism default: ExecOptions::parallelism == 0 derives
// default_parallelism() = min(max(1, std::thread::hardware_concurrency()),
// 16) — one worker per hardware thread, capped because the in-flight
// memory budget and combine fan-in grow with k while the paper's scaling
// (Table 5/6) flattens past 16. Both the CLI's --jobs/-k and every mode of
// the facade resolve the same default.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/stage.h"
#include "exec/thread_pool.h"
#include "io/engine.h"
#include "stream/dataflow.h"

namespace kq::obs {
class Tracer;
}

namespace kq {

enum class ExecMode {
  kSerial,
  kBatch,
  kStream,
};

inline const char* exec_mode_name(ExecMode m) {
  switch (m) {
    case ExecMode::kSerial: return "serial";
    case ExecMode::kBatch: return "batch";
    case ExecMode::kStream: return "stream";
  }
  return "?";
}

// The hardware-derived parallelism used when ExecOptions::parallelism is 0.
int default_parallelism();

// One knob set for every mode. Streaming-only fields (block_size,
// max_inflight, spill_threshold, shard_slice, delimiter) are ignored by
// kBatch/kSerial; parallelism and use_elimination apply to both executors.
struct ExecOptions {
  ExecMode mode = ExecMode::kStream;
  // 0 = default_parallelism(). kSerial ignores it; kBatch and kStream
  // receive the identical resolved value.
  int parallelism = 0;
  // Fuse eliminated-combiner chains (false = the paper's "unoptimized"
  // mode).
  bool use_elimination = true;
  std::size_t block_size = 1 << 20;
  // Max chunks a segment may have in flight (its memory budget is
  // max_inflight · block_size). 0 derives 2 · parallelism + 2.
  std::size_t max_inflight = 0;
  char delimiter = '\n';
  // In-memory accumulation budget per node before spilling to disk
  // (sorted-run external merge for sortable stages, raw spool for
  // materialize/rerun stages). Also caps a single delimiter-free record:
  // one that outgrows a block and this threshold fails loudly (EMSGSIZE)
  // instead of ballooning RSS, so the reader buffers at most
  // max(block_size, spill_threshold) per record. 0 disables spilling (and
  // the record cap) entirely.
  std::size_t spill_threshold = 64 << 20;
  // Slice size for sharded parallel segments (the contiguous record-aligned
  // unit a shard worker runs its fused sub-chain over). 0 derives
  // 2 · block_size. Larger slices mean fewer combine-tree parts and less
  // per-slice processor setup; the runtime scales the segment's in-flight
  // slot count down so the byte budget (max_inflight · block_size) is
  // unchanged.
  std::size_t shard_slice = 0;
  // Stream-mode I/O backend for the fd source and every spill file
  // (src/io/engine.h): kAuto resolves via KQ_IO_BACKEND and the kernel
  // probe; the CLI's --io-backend lands here. kBatch/kSerial slurp through
  // plain read(2) and ignore it.
  io::Backend io_backend = io::Backend::kAuto;
  // Deterministic fault-injection seam (tests only): scripted failpoints
  // every engine built for the run consults. Must outlive the run.
  io::FaultPlan* fault_plan = nullptr;
  // Telemetry (src/obs/), stream mode. `stats` allocates per-node
  // obs::StageCounters and wires blocked-time/record/pool accounting
  // through the run — the extended NodeMetrics fields are zero without it.
  // A non-null `tracer` records spans (node lifetimes, block processing,
  // spill runs, merges) for --trace-json. Both default off; the disabled
  // hot path pays one branch per block and never touches the clock.
  bool stats = false;
  obs::Tracer* tracer = nullptr;
};

// Where the input bytes come from. Small value type: the referenced
// stream/buffer must outlive the run() call (the Executor never owns it).
class Source {
 public:
  Source(std::string_view bytes) : kind_(Kind::kString), bytes_(bytes) {}
  Source(const std::string& bytes)
      : kind_(Kind::kString), bytes_(bytes) {}
  Source(const char* bytes) : kind_(Kind::kString), bytes_(bytes) {}
  Source(std::istream& in) : kind_(Kind::kIstream), in_(&in) {}
  static Source from_fd(int fd) {
    Source s;
    s.kind_ = Kind::kFd;
    s.fd_ = fd;
    return s;
  }

 private:
  friend class Executor;
  enum class Kind { kString, kIstream, kFd };
  Source() = default;
  Kind kind_ = Kind::kString;
  std::string_view bytes_;
  std::istream* in_ = nullptr;
  int fd_ = -1;
};

// The one result shape. Stream runs fill the full telemetry; batch/serial
// runs report one `nodes` row per stage (command, combiner, chunks, bytes,
// elimination/fallback flags) and leave the stream-only gauges zero.
struct ExecResult {
  bool ok = true;
  std::string error;           // set when !ok
  std::string output;          // run_collect only (sink overloads leave it
                               // empty; batch/serial always collect)
  double seconds = 0;
  std::size_t peak_inflight_bytes = 0;  // stream: channel high-water mark
  std::size_t spilled_bytes = 0;        // stream: total spilled to disk
  // stream: input bytes the BlockReader delivered — far below the input
  // size when a prefix-bounded stage (head) cancelled the upstream early.
  std::size_t bytes_read = 0;
  // Resolved I/O backend a stream run used ("poll" or "uring"); empty for
  // batch/serial runs, which bypass the engine layer.
  std::string io_backend;
  bool stopped_early = false;      // the sink returned false (ok stays true)
  bool combine_undefined = false;  // !ok: a combiner bailed mid-fold
  bool batch_fallback = false;     // stream-over-string reran via batch
  bool refused = false;  // !ok: the plan cannot execute; no input was read
  std::vector<stream::NodeMetrics> nodes;
};

// The facade. Owns its worker pool (sized to the resolved parallelism,
// created lazily on first parallel use), so constructing one per
// configuration is cheap and running many pipelines through it amortizes
// thread startup.
class Executor {
 public:
  explicit Executor(ExecOptions options = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // The options with the parallelism default resolved.
  const ExecOptions& options() const { return options_; }

  // Drains `input` through the pipeline into `sink` (streaming delivery;
  // batch/serial modes invoke the sink once with the whole output).
  ExecResult run(const std::vector<exec::ExecStage>& stages, Source input,
                 const stream::Sink& sink);

  // Same, writing to an ostream.
  ExecResult run(const std::vector<exec::ExecStage>& stages, Source input,
                 std::ostream& output);

  // Collects the output into ExecResult::output. For a string source in
  // stream mode a mid-stream undefined combine (the batch runner's
  // combine-fallback guard) reruns through the batch path (batch_fallback
  // set) instead of failing; other sources cannot replay their input, so
  // the failure propagates as !ok.
  ExecResult run_collect(const std::vector<exec::ExecStage>& stages,
                         Source input);

 private:
  exec::ThreadPool& pool();
  // Builds the BlockReader for `input` and runs the dataflow runtime.
  ExecResult run_stream(const std::vector<exec::ExecStage>& stages,
                        Source input, const stream::Sink& sink);

  ExecOptions options_;
  std::unique_ptr<exec::ThreadPool> pool_;
};

}  // namespace kq
