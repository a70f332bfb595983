#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "base/error.hpp"
#include "sim/engine.hpp"

namespace scioto::trace {

const char* ev_name(Ev kind) {
  switch (kind) {
    case Ev::TaskBegin:
      return "task";
    case Ev::TaskEnd:
      return "task";
    case Ev::Push:
      return "push";
    case Ev::Pop:
      return "pop";
    case Ev::Release:
      return "release";
    case Ev::Reacquire:
      return "reacquire";
    case Ev::StealAttempt:
      return "steal_attempt";
    case Ev::StealOk:
      return "steal";
    case Ev::StealFail:
      return "steal_fail";
    case Ev::RemoteAdd:
      return "remote_add";
    case Ev::TokenSend:
      return "token";
    case Ev::Vote:
      return "vote";
    case Ev::WaveStart:
      return "wave";
    case Ev::Terminate:
      return "terminate";
    case Ev::PgasPut:
      return "put";
    case Ev::PgasGet:
      return "get";
    case Ev::PgasAcc:
      return "acc";
    case Ev::PgasRmw:
      return "rmw";
    case Ev::Barrier:
      return "barrier";
    case Ev::Search:
      return "search";
    case Ev::PhaseBegin:
      return "tc_process";
    case Ev::PhaseEnd:
      return "tc_process";
    case Ev::FaultInjected:
      return "fault_injected";
    case Ev::StealAborted:
      return "steal_aborted";
    case Ev::TaskRecovered:
      return "task_recovered";
    case Ev::TreeRespliced:
      return "tree_respliced";
    case Ev::StealBusy:
      return "steal_busy";
    case Ev::StealRetarget:
      return "steal_retarget";
    case Ev::ReacquireFast:
      return "reacquire_fast";
    case Ev::Suspect:
      return "suspect";
    case Ev::Refute:
      return "refute";
    case Ev::ConfirmDead:
      return "confirm_dead";
    case Ev::FenceAbort:
      return "fence_abort";
    case Ev::NodeReady:
      return "node_ready";
    case Ev::NodeRun:
      return "node_run";
    case Ev::ConflictRetry:
      return "conflict_retry";
    case Ev::KnobChange:
      return "knob_change";
    case Ev::JoinRequest:
      return "join_request";
    case Ev::JoinAdmit:
      return "join_admit";
    case Ev::Quiesce:
      return "quiesce";
    case Ev::Checkpoint:
      return "checkpoint";
    case Ev::Restore:
      return "restore";
    case Ev::SpawnEdge:
      return "spawn_edge";
    case Ev::MigrateEdge:
      return "migrate_edge";
    case Ev::ExecSpan:
      return "exec_span";
  }
  return "?";
}

Sink::Sink(std::size_t capacity)
    : capacity_(capacity), buf_(std::max<std::size_t>(capacity, 1)) {
  SCIOTO_REQUIRE(capacity >= 1, "trace sink capacity must be >= 1");
}

std::size_t Sink::size() const {
  return static_cast<std::size_t>(std::min(count_, capacity_));
}

std::uint64_t Sink::dropped() const {
  return count_ > capacity_ ? count_ - capacity_ : 0;
}

std::vector<Event> Sink::snapshot() const {
  std::vector<Event> out;
  out.reserve(size());
  std::uint64_t first = count_ > capacity_ ? count_ - capacity_ : 0;
  for (std::uint64_t i = first; i < count_; ++i) {
    out.push_back(buf_[static_cast<std::size_t>(i % capacity_)]);
  }
  return out;
}

void Sink::clear() { count_ = 0; }

namespace {

struct Session {
  std::vector<std::unique_ptr<Sink>> sinks;
  std::chrono::steady_clock::time_point wall_start;
};

// start/stop only happen outside the SPMD region, so no rank can be
// mid-record across a transition of the armed bit.
Session g_session;

}  // namespace

std::size_t default_capacity() {
  if (const char* env = std::getenv("SCIOTO_TRACE_CAP")) {
    long long v = std::atoll(env);
    if (v >= 1) {
      return static_cast<std::size_t>(v);
    }
  }
  return static_cast<std::size_t>(1) << 15;
}

void start(int nranks, std::size_t capacity_per_rank) {
  SCIOTO_REQUIRE(!active(), "trace session already active");
  SCIOTO_REQUIRE(nranks >= 1, "trace session needs >= 1 rank");
  if (capacity_per_rank == 0) {
    capacity_per_rank = default_capacity();
  }
  g_session.sinks.clear();
  g_session.sinks.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    g_session.sinks.push_back(std::make_unique<Sink>(capacity_per_rank));
  }
  g_session.wall_start = std::chrono::steady_clock::now();
  obs::arm(obs::kTrace);
}

void stop() {
  obs::disarm(obs::kTrace);
  g_session.sinks.clear();
}

TimeNs clock_now() {
  TimeNs vt = sim::current_virtual_time();
  if (vt >= 0) {
    return vt;
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_session.wall_start)
      .count();
}

int session_nranks() {
  return active() ? static_cast<int>(g_session.sinks.size()) : 0;
}

void record(Rank rank, Ev kind, std::int32_t a, std::int32_t b,
            std::int64_t c) {
  if (!active() || rank < 0 ||
      rank >= static_cast<Rank>(g_session.sinks.size())) {
    return;
  }
  Event e;
  e.t = clock_now();
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.c = c;
  e.rank = rank;
  g_session.sinks[static_cast<std::size_t>(rank)]->record(e);
}

std::vector<Event> events(Rank rank) {
  if (!active() || rank < 0 ||
      rank >= static_cast<Rank>(g_session.sinks.size())) {
    return {};
  }
  return g_session.sinks[static_cast<std::size_t>(rank)]->snapshot();
}

std::vector<Event> all_events() {
  // Merge per-rank streams by (time, rank). Each stream is already in
  // recording order, so a stable sort keyed on (time, rank) preserves the
  // per-rank sequence and gives a deterministic global order.
  std::vector<Event> out;
  for (int r = 0; r < session_nranks(); ++r) {
    std::vector<Event> evs = events(r);
    out.insert(out.end(), evs.begin(), evs.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& x, const Event& y) {
                     if (x.t != y.t) return x.t < y.t;
                     return x.rank < y.rank;
                   });
  return out;
}

std::uint64_t dropped(Rank rank) {
  if (!active() || rank < 0 ||
      rank >= static_cast<Rank>(g_session.sinks.size())) {
    return 0;
  }
  return g_session.sinks[static_cast<std::size_t>(rank)]->dropped();
}

std::uint64_t total_dropped() {
  std::uint64_t n = 0;
  for (int r = 0; r < session_nranks(); ++r) {
    n += g_session.sinks[static_cast<std::size_t>(r)]->dropped();
  }
  return n;
}

}  // namespace scioto::trace
