#include "obs/obs.hpp"

#include <algorithm>
#include <array>

namespace scioto::obs {

namespace {

using metrics::Ctr;
using metrics::Hist;
using Table = std::array<Row, trace::kNumEv>;

constexpr void put(Table& t, Ev kind, Src s0, Ctr c0, Src s1 = Src::None,
                   Ctr c1 = Ctr::kCount, Src hs = Src::None,
                   Hist h = Hist::kCount) {
  t[static_cast<std::size_t>(kind)] = Row{{s0, s1}, {c0, c1}, hs, h};
}

// The event->metric table: what one recorded event of each kind adds to
// the recording rank's patch; unlisted kinds feed no metric. Two rules
// keep its output equal to the per-site counting it replaced:
//
//   * Runtime::put_word_reliable also counts PgasPuts/PgasPutBytes,
//     metric-only: its control words (termination tokens among them)
//     record no PgasPut event, because one would change every pinned trace
//     that carries a termination wave. Those two counters are therefore
//     >= the sum over PgasPut and PgasAcc events.
//   * QPushes rides the Push row, so it counts pushes that landed; a push
//     that finds the queue full or fenced records nothing.
//
// The root's Vote carries the wave latency as its duration; other ranks'
// votes carry none.
constexpr Table make_table() {
  using enum Src;
  Table t{};
  put(t, Ev::TaskEnd, One, Ctr::TasksExecuted, None, Ctr::kCount, Dur,
      Hist::TaskExecNs);
  put(t, Ev::Push, One, Ctr::QPushes, None, Ctr::kCount, Dur, Hist::PushNs);
  put(t, Ev::Pop, One, Ctr::QPops, None, Ctr::kCount, Dur, Hist::PopNs);
  put(t, Ev::Release, One, Ctr::QReleases, A, Ctr::QReleasedTasks);
  put(t, Ev::Reacquire, One, Ctr::QReacquires, A, Ctr::QReacquiredTasks);
  put(t, Ev::ReacquireFast, One, Ctr::QReacquires, A, Ctr::QReacquiredTasks);
  put(t, Ev::StealAttempt, One, Ctr::StealAttempts);
  put(t, Ev::StealOk, One, Ctr::Steals, B, Ctr::TasksStolen, Dur,
      Hist::StealNs);
  put(t, Ev::StealFail, One, Ctr::StealFails);
  put(t, Ev::StealBusy, One, Ctr::StealLockBusy);
  put(t, Ev::TaskRecovered, B, Ctr::TasksRecovered);
  put(t, Ev::WaveStart, One, Ctr::TdWaves);
  put(t, Ev::Vote, One, Ctr::TdVotes, B, Ctr::TdBlackVotes, Dur, Hist::WaveNs);
  put(t, Ev::PgasGet, One, Ctr::PgasGets, C, Ctr::PgasGetBytes);
  put(t, Ev::PgasPut, One, Ctr::PgasPuts, C, Ctr::PgasPutBytes);
  put(t, Ev::PgasAcc, One, Ctr::PgasAccs, C, Ctr::PgasPutBytes);
  put(t, Ev::PgasRmw, One, Ctr::PgasRmws);
  put(t, Ev::Search, None, Ctr::kCount, None, Ctr::kCount, C, Hist::SearchNs);
  put(t, Ev::Suspect, One, Ctr::Suspects);
  put(t, Ev::Refute, One, Ctr::Refutes);
  put(t, Ev::ConfirmDead, One, Ctr::Confirms);
  put(t, Ev::NodeReady, One, Ctr::DagNodesFired, OtherRank,
      Ctr::DagRemoteFires);
  put(t, Ev::NodeRun, One, Ctr::DagNodesRun, None, Ctr::kCount, C,
      Hist::DagNodeDepth);
  put(t, Ev::ConflictRetry, NotB, Ctr::DagConflictRetries, B,
      Ctr::DagVersionWaits);
  put(t, Ev::KnobChange, One, Ctr::CtlDecisions);
  return t;
}

constexpr Table kTable = make_table();

std::uint64_t value(Src s, const trace::Event& e) {
  switch (s) {
    case Src::None:
    case Src::Dur:
      return 0;
    case Src::One:
      return 1;
    case Src::A:
      return static_cast<std::uint64_t>(e.a);
    case Src::B:
      return static_cast<std::uint64_t>(e.b);
    case Src::C:
      return static_cast<std::uint64_t>(e.c);
    case Src::NotB:
      return e.b == 0 ? 1 : 0;
    case Src::OtherRank:
      return e.b != e.rank ? 1 : 0;
  }
  return 0;
}

}  // namespace

std::span<const Row> rows() { return kTable; }

void record(Rank r, Ev kind, std::int64_t a, std::int64_t b, std::int64_t c,
            TimeNs dur) {
  trace::Event e;
  e.c = c;
  e.a = static_cast<std::int32_t>(a);
  e.b = static_cast<std::int32_t>(b);
  e.rank = r;
  e.kind = kind;
  const std::uint32_t bits = armed();
  if (bits & kTrace) trace::record(r, kind, e.a, e.b, e.c);
  if (!(bits & kMetrics)) return;
  const Row& row = kTable[static_cast<std::size_t>(kind)];
  for (int i = 0; i < 2; ++i) {
    if (row.src[i] != Src::None) {
      metrics::counter_add(r, row.ctr[i], value(row.src[i], e));
    }
  }
  if (row.hist_src == Src::C) {
    metrics::hist_record(r, row.hist, value(Src::C, e));
  } else if (row.hist_src == Src::Dur && dur != kNoDur) {
    metrics::hist_record(r, row.hist,
                         static_cast<std::uint64_t>(std::max<TimeNs>(dur, 0)));
  }
}

}  // namespace scioto::obs
