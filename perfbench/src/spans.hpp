// Benchmark-side span recorder for the traced runs.
//
// Spans are opened and closed around calls into the library from the
// benchmark's own code (never from inside src/). Each rank keeps a stack
// of open spans, so spans of one rank nest strictly, and a span's self
// time is its duration minus the durations of its direct children -- the
// part of its interval they cover. Totals per span name are exact for the
// whole run; individual span records are kept up to a per-rank cap and
// written out at exit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t { Setup, Process, Task, Hash, Add };
inline constexpr std::size_t kSpanNames = 5;
const char* span_name(SpanName n);

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::uint32_t parent = kNoParent;  // index into the same rank's records
  std::uint32_t run = 0;
  std::int32_t rank = 0;
  SpanName name = SpanName::Setup;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  using Clock = std::int64_t (*)();

  SpanRecorder(int nranks, std::size_t keep_per_rank, Clock clock = &wall_ns);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Tags spans opened from now on with run id `run` (one per repetition).
  /// Call only while no rank is recording.
  void set_run(std::uint32_t run) { run_ = run; }

  /// Opens a span on `rank`; only that rank's thread (or fiber) may call.
  void open(int rank, SpanName name);
  /// Closes `rank`'s innermost open span and returns its end timestamp.
  std::int64_t close(int rank);

  /// Totals summed over ranks since construction or reset_totals().
  SpanTotals totals(SpanName name) const;
  /// Latest close timestamp of `name` on `rank` (0 if none since reset).
  std::int64_t last_end(int rank, SpanName name) const;
  /// Clears totals and last-end stamps (kept records are untouched).
  void reset_totals();

  std::uint64_t records_kept() const;
  std::uint64_t records_dropped() const;

  /// Writes every kept record as JSON; returns false if the file cannot
  /// be written.
  bool write_json(const std::string& path) const;

 private:
  struct Frame {
    std::int64_t start;
    std::int64_t child_ns;
    std::uint32_t rec;
    SpanName name;
  };
  struct alignas(64) RankState {
    std::vector<Frame> stack;
    std::vector<SpanRecord> recs;
    std::array<SpanTotals, kSpanNames> totals{};
    std::array<std::int64_t, kSpanNames> last_end{};
    std::uint64_t dropped = 0;
  };

  std::vector<RankState> ranks_;
  std::size_t keep_;
  Clock clock_;
  std::uint32_t run_ = 0;
};

/// RAII helper: opens on construction, closes on destruction; a null
/// recorder makes it a no-op so one code path serves traced and untraced
/// repetitions.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, int rank, SpanName name)
      : rec_(rec), rank_(rank) {
    if (rec_) rec_->open(rank_, name);
  }
  ~SpanScope() {
    if (rec_) rec_->close(rank_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int rank_;
};

}  // namespace perfbench
