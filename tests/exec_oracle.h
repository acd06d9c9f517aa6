// The reference runs shared by the runtime tests: every mode, source shape
// and option set is compared byte-for-byte against ExecMode::kSerial (every
// stage whole-stream, no parallelism) or against the staged batch runner.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exec/executor.h"

namespace kq {

inline std::string serial_output(const std::vector<exec::ExecStage>& stages,
                                 std::string_view input) {
  ExecOptions options;
  options.mode = ExecMode::kSerial;
  return Executor(options).run_collect(stages, input).output;
}

// The staged batch runner's output (ExecMode::kBatch, elimination on).
inline std::string batch_output(const std::vector<exec::ExecStage>& stages,
                                std::string_view input, int parallelism) {
  ExecOptions options;
  options.mode = ExecMode::kBatch;
  options.parallelism = parallelism;
  return Executor(options).run_collect(stages, input).output;
}

}  // namespace kq
