// Result bookkeeping for the benchmark driver: order statistics over
// repeated samples, the ordered metric list a run reports, and the JSON
// line the harness reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall clock in nanoseconds since an arbitrary epoch.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double wall_s() { return static_cast<double>(wall_ns()) * 1e-9; }

/// Median and quartiles of a sample, with its size. Quartiles use the
/// same "exclusive" interpolation as Python's statistics.quantiles(n=4),
/// so numbers printed here match what the harness computes from runs.
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> xs);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's outcome: every repetition is an attempted operation, and a
/// repetition whose output fails its check is a failed one.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked repetition.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  bool correct() const { return attempted > 0 && failed == 0; }
};

/// The single-line JSON object the harness parses:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_json(const Result& r);

/// Escapes a string for inclusion in JSON output.
std::string json_escape(const std::string& s);

}  // namespace perfbench
