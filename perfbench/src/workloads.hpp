// The benchmark's four workloads and the run loop around them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where span files and full result files go.
  std::string out_dir = ".bench_out";
  /// Test hook: offsets every reference count by one, so every
  /// repetition must be reported as a failed operation.
  bool wrong_reference = false;
};

const std::vector<std::string>& workload_names();

/// Runs one workload for about opt.seconds and returns its result; human
/// readable detail lines go to stdout prefixed with "# ".
Result run_workload(const Options& opt);

}  // namespace perfbench
