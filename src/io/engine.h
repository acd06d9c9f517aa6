// Async I/O backend abstraction for the streaming runtime. A kq::io::Engine
// owns the syscall layer under one dataflow node's I/O: source reads for
// BlockReader fds, and spill-run writes / merge-phase reads for the spill
// machinery (stream/spill.cpp). Two implementations:
//
//   - PollEngine (poll_engine.cpp): the portability fallback — the
//     poll(2)+read source loop the runtime always had, plus synchronous
//     pwrite/pread spill I/O. Works on every kernel.
//   - UringEngine (uring_engine.cpp): io_uring via raw syscalls (no
//     liburing dependency). Source reads are submitted as READ chained to
//     a LINK_TIMEOUT (the cancellation tick), spill writes are copied
//     into registered buffers and submitted as batched async
//     WRITE_FIXED/WRITE SQEs that complete while the node keeps sorting,
//     and merge reads are plain offset READs. Built only where
//     <linux/io_uring.h> exists; selected only when the runtime kernel
//     probe succeeds.
//
// Backend selection (resolve_backend): explicit > KQ_IO_BACKEND env >
// probe. `--io-backend {auto,uring,poll}` on the CLI and
// ExecOptions::io_backend feed the explicit layer; kAuto consults the env
// var and then picks uring when the kernel supports it. An explicit uring
// request on a kernel without it degrades to poll with a one-time stderr
// note rather than failing the run.
//
// Both engines route every I/O attempt through the same FaultPlan seam
// (io/fault.h), so fault scenarios are replayable and backend-equivalent
// by construction.
//
// Thread safety: an Engine is thread-COMPATIBLE, owned by exactly one
// node thread (the single-owner convention of docs/CONCURRENCY.md) — an
// io_uring ring is per-owner and never shared. The one cross-thread edge,
// set_counters after the owner thread started, is covered by an atomic
// pointer like BlockReader's tracer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace kq::obs {
struct StageCounters;
}

namespace kq::stream {
class BufferPool;
}

namespace kq::io {

class FaultPlan;

enum class Backend { kAuto, kPoll, kUring };

// "auto" / "poll" / "uring" for flags, env, and telemetry labels.
const char* backend_name(Backend backend);
// Parses a --io-backend / KQ_IO_BACKEND value; false on unknown text.
bool parse_backend(std::string_view text, Backend* out);

// Runtime kernel probe: true when io_uring_setup succeeds on this kernel
// (not gated off by seccomp, CONFIG_IO_URING=n, or a pre-5.x kernel).
// Probed once, cached.
bool uring_supported();

// Resolves kAuto through KQ_IO_BACKEND and the kernel probe; degrades an
// unsupported explicit kUring to kPoll (one-time stderr note). Never
// returns kAuto.
Backend resolve_backend(Backend requested);

// Per-run I/O configuration, built from kq::ExecOptions' io_backend and
// fault_plan for the fd source and every spill file of a stream run.
// `faults` is a test-only seam (see io/fault.h); production runs leave it
// null.
struct IoOptions {
  Backend backend = Backend::kAuto;
  FaultPlan* faults = nullptr;
};

// Shared flags between a BlockReader and its engine's source-read loop —
// the same shared state the poll source lambda always captured, passed by
// pointer so the loop can honor cancellation, report idleness and errors,
// and charge opt-in wait time. All pointers outlive the read (they live in
// the BlockReader's shared_ptr state).
struct SourceCtl {
  const std::atomic<bool>* cancel = nullptr;   // consumer asked us to stop
  std::atomic<bool>* idle = nullptr;           // out: source has no more *now*
  const std::atomic<bool>* time_waits = nullptr;  // opt-in wait timing
  std::atomic<std::uint64_t>* wait_ns = nullptr;  // out: idle-wait total
  int* error = nullptr;                        // out: errno on hard failure
};

// Counters an engine reports without a StageCounters sink attached (unit
// tests); with one attached the same increments land there too.
struct EngineStats {
  std::uint64_t sqe_batches = 0;  // submission batches entered (uring only)
  std::uint64_t cqe_waits = 0;    // blocking completion waits (uring only)
};

class Engine {
 public:
  virtual ~Engine();

  virtual const char* name() const = 0;  // "poll" or "uring"

  // Source read for BlockReader: up to `n` bytes into `buf`, returning the
  // count. 0 means end of input, cancellation, or a hard error (then
  // *ctl.error is the errno). Honors the cancellation tick: a cancel()
  // while the producer is idle is noticed within ~50 ms, and in-flight
  // uring SQEs are timed out and re-armed rather than left blocking.
  virtual std::size_t read_source(int fd, char* buf, std::size_t n,
                                  const SourceCtl& ctl) = 0;

  // Spill-run write of `bytes` at `offset`. The uring engine queues the
  // write asynchronously (the data is staged in registered buffers, so the
  // caller's buffer is free immediately) and surfaces completion errors on
  // the next write/flush/read; the poll engine completes synchronously.
  // False on a hard error, with a coded "[KQ-IO] ..." message in *error.
  virtual bool write_at(int fd, std::string_view bytes, std::size_t offset,
                        std::string* error) = 0;

  // Waits until every queued write has fully completed. False surfaces any
  // asynchronous write failure (ENOSPC mid-run, short-write-then-EIO).
  virtual bool flush(int fd, std::string* error) = 0;

  // Merge-phase read: exactly `n` bytes at `offset`. False on error or
  // unexpected EOF, with a coded message in *error.
  virtual bool read_at(int fd, char* buf, std::size_t n, std::size_t offset,
                       std::string* error) = 0;

  // Attaches the owning node's stats counters (sqe_batches / cqe_waits).
  // Atomic for the same reason as BlockReader::set_tracer.
  void set_counters(obs::StageCounters* counters) {
    counters_.store(counters, std::memory_order_release);
  }

  const EngineStats& stats() const { return stats_; }

 protected:
  void count_sqe_batch();
  void count_cqe_wait();

  EngineStats stats_;

 private:
  std::atomic<obs::StageCounters*> counters_{nullptr};
};

// Builds the engine for `options` (resolving kAuto). A uring engine whose
// ring setup fails at construction (RLIMIT_MEMLOCK, seccomp) degrades to
// poll. `pool` (optional) supplies the uring engine's registered staging
// buffer from the runtime's block-buffer pool budget.
std::unique_ptr<Engine> make_engine(const IoOptions& options = {},
                                    stream::BufferPool* pool = nullptr);

// Coded diagnostic for I/O failures, e.g.
//   "[KQ-IO] spill write: No space left on device (ENOSPC)".
// The KQ-IO code is documented in docs/CHECKS.md alongside the static
// checker's KQ-S/KQ-W codes.
std::string coded_error(const char* op, int err);
std::string coded_error(const char* op, const std::string& detail);

}  // namespace kq::io
