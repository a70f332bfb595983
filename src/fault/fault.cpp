#include "fault/fault.hpp"

#include <algorithm>
#include <memory>
#include <mutex>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "sim/engine.hpp"
#include "obs/obs.hpp"

namespace scioto::fault {

namespace {

/// One plan event plus its firing state.
struct Armed {
  FaultEvent ev;
  int fired = 0;    // times this rule has fired
  int matched = 0;  // matching ops seen (threads-backend count trigger)
};

struct Session {
  int nranks = 0;
  std::uint64_t seed = 0;
  std::vector<Armed> rules;
  std::vector<std::unique_ptr<std::atomic<bool>>> alive;
  std::vector<int> safepoint_polls;     // per-rank, threads-backend kills
  std::vector<Xoshiro256> jitter;       // per-rank backoff streams
  std::atomic<std::uint64_t> epoch{0};
  Summary stats;
  // Guards rules/stats mutation. Uncontended under the sim backend (one OS
  // thread); required for the threads backend.
  std::mutex mu;
};

using detail::g_active;
Session g_session;

// Process-global, deliberately NOT reset by start(): the C API stages
// retry knobs before a session exists and they must survive into it.
RetryPolicy g_policy;

/// Virtual time under sim, -1 under the threads backend (switches rule
/// matching from time-based to count-based).
TimeNs now_or_neg() { return sim::current_virtual_time(); }

/// The timestamp recorded for a fault event firing "now". This is the ONE
/// place the threads backend's -1 sentinel becomes a 0 event time: callers
/// that stamp deaths (poll_safepoint, mark_dead) share it, so the clamp
/// cannot silently hide a sim-clock bug in just one of them.
TimeNs event_time() {
  TimeNs now = now_or_neg();
  return now >= 0 ? now : 0;
}

bool op_matches(const FaultEvent& ev, OpKind op, Rank me, Rank target) {
  if (ev.op != OpKind::Any && ev.op != op) return false;
  if (ev.rank != kNoRank && ev.rank != me) return false;
  if (ev.target != kNoRank && ev.target != target) return false;
  return true;
}

/// Shared trigger logic for op-level rules: under sim a rule fires on
/// matching ops at/after `at`; under threads it fires once `after`
/// matching ops have gone through. Both stop after `count` firings.
bool try_fire(Armed& a, TimeNs now) {
  ++a.matched;
  if (a.fired >= a.ev.count) return false;
  if (now >= 0 ? now < a.ev.at : a.matched <= a.ev.after) return false;
  ++a.fired;
  return true;
}

std::uint64_t mark_dead_locked(Rank r, TimeNs now) {
  auto& flag = *g_session.alive[static_cast<std::size_t>(r)];
  if (!flag.exchange(false, std::memory_order_acq_rel)) {
    return g_session.epoch.load(std::memory_order_acquire);
  }
  ++g_session.stats.kills;
  std::uint64_t e =
      g_session.epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
  obs::emit(r, trace::Ev::FaultInjected, static_cast<int>(FaultType::Kill), r,
            now);
  return e;
}

}  // namespace

void start(int nranks, FaultPlan plan, std::uint64_t seed) {
  SCIOTO_REQUIRE(!active(), "fault session already active");
  SCIOTO_REQUIRE(nranks >= 1, "fault session needs >= 1 rank");
  SCIOTO_REQUIRE(plan.kill_count() < nranks,
                 "fault plan would kill every rank");
  g_session.nranks = nranks;
  g_session.seed = seed;
  g_session.rules.clear();
  for (const FaultEvent& ev : plan.events) {
    // Fail fast, and echo the offending rule: in a multi-event plan a bare
    // range error is undebuggable (the parser cannot catch this -- it does
    // not know nranks).
    SCIOTO_REQUIRE(ev.rank < nranks && ev.target < nranks,
                   "fault event names a rank outside the run (nranks="
                       << nranks << "): " << describe_event(ev));
    g_session.rules.push_back(Armed{ev, 0, 0});
  }
  g_session.alive.clear();
  g_session.jitter.clear();
  for (int r = 0; r < nranks; ++r) {
    g_session.alive.push_back(std::make_unique<std::atomic<bool>>(true));
    g_session.jitter.emplace_back(derive_seed(seed, r, /*stream=*/0xFA17));
  }
  g_session.safepoint_polls.assign(static_cast<std::size_t>(nranks), 0);
  g_session.epoch.store(0, std::memory_order_release);
  g_session.stats = Summary{};
  g_active.store(true, std::memory_order_release);
}

void stop() {
  g_active.store(false, std::memory_order_release);
  g_session.rules.clear();
  g_session.alive.clear();
  g_session.jitter.clear();
  g_session.safepoint_polls.clear();
  g_session.nranks = 0;
}

int session_nranks() { return active() ? g_session.nranks : 0; }

RetryPolicy policy() { return g_policy; }

void set_policy(const RetryPolicy& p) {
  SCIOTO_REQUIRE(p.max_attempts >= 1, "retry policy needs >= 1 attempt");
  SCIOTO_REQUIRE(p.backoff_base >= 0 && p.backoff_cap >= p.backoff_base,
                 "retry policy backoff cap must be >= base");
  g_policy = p;
}

std::uint64_t epoch() {
  return active() ? g_session.epoch.load(std::memory_order_acquire) : 0;
}

bool alive(Rank r) {
  if (!active()) return true;
  if (r < 0 || r >= g_session.nranks) return false;
  return g_session.alive[static_cast<std::size_t>(r)]->load(
      std::memory_order_acquire);
}

int alive_count() {
  if (!active()) return 0;
  int n = 0;
  for (int r = 0; r < g_session.nranks; ++r) {
    n += alive(r) ? 1 : 0;
  }
  return n;
}

std::vector<Rank> alive_ranks() {
  std::vector<Rank> out;
  for (int r = 0; r < session_nranks(); ++r) {
    if (alive(r)) out.push_back(r);
  }
  return out;
}

Rank successor(Rank r) {
  if (!active()) return kNoRank;
  for (int i = 1; i <= g_session.nranks; ++i) {
    Rank cand = (r + i) % g_session.nranks;
    if (alive(cand)) return cand;
  }
  return kNoRank;
}

void poll_safepoint(Rank me) {
  if (!active() || me < 0 || me >= g_session.nranks) return;
  TimeNs now = now_or_neg();
  std::lock_guard<std::mutex> g(g_session.mu);
  int polls = ++g_session.safepoint_polls[static_cast<std::size_t>(me)];
  for (Armed& a : g_session.rules) {
    if (a.ev.type != FaultType::Kill || a.ev.rank != me || a.fired > 0) {
      continue;
    }
    if (now >= 0 ? now < a.ev.at : polls <= a.ev.after) continue;
    a.fired = 1;
    TimeNs at = event_time();
    mark_dead_locked(me, at);
    throw RankKilled{me, at};
  }
}

OpFate one_sided_fate(OpKind op, Rank me, Rank target) {
  if (!active()) return OpFate{};
  TimeNs now = now_or_neg();
  std::lock_guard<std::mutex> g(g_session.mu);
  for (Armed& a : g_session.rules) {
    FaultType t = a.ev.type;
    if (t != FaultType::Drop && t != FaultType::Delay && t != FaultType::Dup) {
      continue;
    }
    if (!op_matches(a.ev, op, me, target)) continue;
    if (!try_fire(a, now)) continue;
    obs::emit(me, trace::Ev::FaultInjected, static_cast<int>(t), target,
              a.ev.dur);
    switch (t) {
      case FaultType::Drop:
        ++g_session.stats.drops;
        return OpFate{Fate::Fail, 0};
      case FaultType::Delay:
        ++g_session.stats.delays;
        return OpFate{Fate::Delay, a.ev.dur};
      default:
        ++g_session.stats.dups;
        return OpFate{Fate::Dup, 0};
    }
  }
  return OpFate{};
}

int truncate_steal(Rank thief, Rank victim, int want) {
  if (!active() || want <= 0) return want;
  TimeNs now = now_or_neg();
  std::lock_guard<std::mutex> g(g_session.mu);
  for (Armed& a : g_session.rules) {
    if (a.ev.type != FaultType::Truncate) continue;
    if (!op_matches(a.ev, OpKind::Steal, thief, victim)) continue;
    if (!try_fire(a, now)) continue;
    int keep = std::min(want, a.ev.keep);
    if (keep < want) {
      ++g_session.stats.truncations;
      obs::emit(thief, trace::Ev::FaultInjected,
                static_cast<int>(FaultType::Truncate), victim, keep);
    }
    return keep;
  }
  return want;
}

TimeNs stall_time(Rank holder) {
  if (!active()) return 0;
  TimeNs now = now_or_neg();
  std::lock_guard<std::mutex> g(g_session.mu);
  for (Armed& a : g_session.rules) {
    if (a.ev.type != FaultType::Stall) continue;
    if (a.ev.for_dur > 0) continue;  // whole-rank rule: rank_stall_time()
    if (a.ev.rank != kNoRank && a.ev.rank != holder) continue;
    if (!try_fire(a, now)) continue;
    ++g_session.stats.stalls;
    obs::emit(holder, trace::Ev::FaultInjected,
              static_cast<int>(FaultType::Stall), holder, a.ev.dur);
    return a.ev.dur;
  }
  return 0;
}

TimeNs backoff(Rank me, int attempt) {
  RetryPolicy p = policy();
  if (attempt < 0) attempt = 0;
  TimeNs d = p.backoff_base;
  for (int i = 0; i < attempt && d < p.backoff_cap; ++i) {
    d *= 2;
  }
  d = std::min(d, p.backoff_cap);
  if (d <= 0) return 0;
  // Jitter in [d/2, d], drawn from the rank's own deterministic stream so
  // concurrent retriers desynchronise without breaking reproducibility.
  if (active() && me >= 0 && me < g_session.nranks) {
    std::uint64_t j = g_session.jitter[static_cast<std::size_t>(me)]
                          .next_below(static_cast<std::uint64_t>(d / 2 + 1));
    d = d / 2 + static_cast<TimeNs>(j);
  }
  return d;
}

TimeNs rank_stall_time(Rank me) {
  if (!active() || me < 0 || me >= g_session.nranks) return 0;
  TimeNs now = now_or_neg();
  std::lock_guard<std::mutex> g(g_session.mu);
  int polls = g_session.safepoint_polls[static_cast<std::size_t>(me)];
  for (Armed& a : g_session.rules) {
    if (a.ev.type != FaultType::Stall || a.ev.for_dur <= 0) continue;
    if (a.ev.rank != me || a.fired > 0) continue;
    if (now >= 0 ? now < a.ev.at : polls <= a.ev.after) continue;
    a.fired = 1;
    ++g_session.stats.stalls;
    obs::emit(me, trace::Ev::FaultInjected, static_cast<int>(FaultType::Stall),
              me, a.ev.for_dur);
    return a.ev.for_dur;
  }
  return 0;
}

std::uint64_t mark_dead(Rank r) {
  SCIOTO_REQUIRE(active(), "fault::mark_dead outside an armed session");
  SCIOTO_REQUIRE(r >= 0 && r < g_session.nranks,
                 "fault::mark_dead rank " << r << " out of range");
  std::lock_guard<std::mutex> g(g_session.mu);
  return mark_dead_locked(r, event_time());
}

Summary summary() {
  if (!active()) return Summary{};
  std::lock_guard<std::mutex> g(g_session.mu);
  return g_session.stats;
}

std::vector<FaultEvent> events_of(FaultType t) {
  std::vector<FaultEvent> out;
  if (!active()) return out;
  std::lock_guard<std::mutex> g(g_session.mu);
  for (const Armed& a : g_session.rules) {
    if (a.ev.type == t) out.push_back(a.ev);
  }
  return out;
}

}  // namespace scioto::fault
