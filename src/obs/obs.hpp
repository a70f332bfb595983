// One observability probe per occurrence.
//
// Each instrumented occurrence -- a push, a steal, a vote, a one-sided
// get -- is reported once, through obs::emit or an obs::Span that closes
// with it. The probe reads the armed word (obs/armed.hpp) once; disarmed,
// that load and one predicted-false branch are the whole cost. Armed, the
// out-of-line recorder builds one trace::Event and feeds both planes from
// it: the trace ring when the trace bit is set, and the event's row of the
// event->metric table (obs.cpp) when the metrics bit is set. So trace and
// metrics agree by construction (MetricsReconcile checks every row).
//
// Occurrences with no trace kind (gauges, retry, heartbeat and spawn
// counts, probe round trips) use count/gauge/sample under the same word.
#pragma once

#include <cstdint>
#include <span>

#include "metrics/metrics.hpp"
#include "obs/armed.hpp"
#include "trace/trace.hpp"

namespace scioto::obs {

using trace::Ev;

/// The bits a probe records for: lineage alone records nothing (its three
/// events are trace events).
inline constexpr std::uint32_t kPlanes = kTrace | kMetrics;
/// "The occurrence carries no duration": its row's duration histogram is
/// left alone.
inline constexpr TimeNs kNoDur = -1;

/// True when a probe records. Guard a probe with it only when its rank or
/// payload costs something to compute (a backend call, an atomic load).
inline bool on() { return (armed() & kPlanes) != 0; }

/// The armed path of every probe: one event, both planes.
void record(Rank r, Ev kind, std::int64_t a, std::int64_t b, std::int64_t c,
            TimeNs dur);

/// Records one occurrence on rank r: a/b/c are the trace::Ev payload
/// fields, `dur` feeds the row's duration histogram.
inline void emit(Rank r, Ev kind, std::int64_t a = 0, std::int64_t b = 0,
                 std::int64_t c = 0, TimeNs dur = kNoDur) {
  if (on()) [[unlikely]] record(r, kind, a, b, c, dur);
}

/// A timed occurrence. Construction reads the armed word once and, only
/// when armed, the trace clock; emit()/end() reuse that reading, so an op
/// that opens a span pays one load disarmed. Armed, the closing clock read
/// feeds both the event's duration and the row's histogram. Under sim the
/// trace clock is the rank's virtual clock, and reading it charges nothing.
class Span {
 public:
  Span() : bits_(armed() & kPlanes), t0_(bits_ ? trace::clock_now() : 0) {}

  explicit operator bool() const { return bits_ != 0; }
  bool metrics() const { return (bits_ & kMetrics) != 0; }

  /// An occurrence inside the span, with no duration of its own.
  void emit(Rank r, Ev kind, std::int64_t a = 0, std::int64_t b = 0,
            std::int64_t c = 0) const {
    if (bits_) [[unlikely]] record(r, kind, a, b, c, kNoDur);
  }
  /// Closes the span; the elapsed time feeds the row's histogram and c is
  /// the event's own payload (a queue depth, say).
  void end(Rank r, Ev kind, std::int64_t a, std::int64_t b,
           std::int64_t c) const {
    if (bits_) [[unlikely]] record(r, kind, a, b, c, elapsed());
  }
  /// Closes the span with an event whose payload c is the elapsed time.
  void end(Rank r, Ev kind, std::int64_t a = 0, std::int64_t b = 0) const {
    if (bits_) [[unlikely]] {
      const TimeNs dur = elapsed();
      record(r, kind, a, b, dur, dur);
    }
  }

 private:
  TimeNs elapsed() const { return trace::clock_now() - t0_; }

  std::uint32_t bits_;
  TimeNs t0_;
};

// Metric-only occurrences.
inline void count(Rank r, metrics::Ctr c, std::uint64_t delta = 1) {
  if (armed() & kMetrics) [[unlikely]] metrics::counter_add(r, c, delta);
}
inline void gauge(Rank r, metrics::Gauge g, std::uint64_t v) {
  if (armed() & kMetrics) [[unlikely]] metrics::gauge_set(r, g, v);
}
inline void sample(Rank r, metrics::Hist h, std::uint64_t v) {
  if (armed() & kMetrics) [[unlikely]] metrics::hist_record(r, h, v);
}

// ---- The event->metric table (read by tests) ----

/// Where an update takes its value from.
enum class Src : std::uint8_t {
  None,
  One,        // 1 per event
  A,          // payload a
  B,          // payload b
  C,          // payload c
  NotB,       // 1 - b (b is a 0/1 flag)
  OtherRank,  // 1 when b names a rank other than the recording one
  Dur,        // the span duration (histograms only; skipped when absent)
};

/// What one event of a kind adds to the recording rank's patch.
struct Row {
  Src src[2] = {Src::None, Src::None};
  metrics::Ctr ctr[2] = {metrics::Ctr::kCount, metrics::Ctr::kCount};
  Src hist_src = Src::None;
  metrics::Hist hist = metrics::Hist::kCount;
};

/// The table, indexed by trace::Ev.
std::span<const Row> rows();

}  // namespace scioto::obs
