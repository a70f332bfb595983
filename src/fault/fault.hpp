// Process-global fault-injection session and the resilience primitives the
// runtime builds on.
//
// Failure model (see DESIGN.md "Resilience"):
//   * Fail-stop at safepoints. A rank dies only where the runtime calls
//     fault::poll_safepoint(), and safepoints are placed where the rank
//     holds no locks, so a death never wedges a mutex. Death unwinds the
//     rank's SPMD body via the RankKilled exception; pgas::run_spmd treats
//     it as a benign exit, so under the sim backend the fiber simply
//     finishes and under the threads backend the thread joins.
//   * Recoverable exposed segments. A dead rank's PGAS segments remain
//     readable/writable by survivors -- the model used by victim-side steal
//     logging in fault-tolerant work-stealing runtimes (tasks in flight are
//     reconstructed from metadata the *survivor* can still reach). Only the
//     dead rank's private state (stack, locals) is lost.
//   * One-sided op faults (drop/delay/dup), lock-holder stalls and steal
//     truncation are transient: ops report failure and callers retry with
//     fault::backoff() -- deterministic, jittered, capped exponential.
//
// Like trace::, the session is process-global with a relaxed-atomic
// active() fast path, so a runtime built with fault hooks pays one
// predicted-false branch per hook when no plan is loaded.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "fault/plan.hpp"

namespace scioto::fault {

namespace detail {
// The session flag behind active(), inline so every probe site reads it
// without a call. Only start()/stop() store it (release order).
inline std::atomic<bool> g_active{false};
}  // namespace detail

/// Thrown by poll_safepoint() when the executing rank's fail-stop event is
/// due. Deliberately not derived from std::exception: generic catch sites
/// for "task threw" must not swallow a rank death.
struct RankKilled {
  Rank rank = kNoRank;
  TimeNs at = 0;
};

/// Retry discipline for one-sided ops that can fail transiently.
struct RetryPolicy {
  int max_attempts = 8;            // attempts before the caller falls back
  TimeNs backoff_base = us(2);     // first retry delay
  TimeNs backoff_cap = us(100);    // exponential growth clamp
};

enum class Fate : std::uint8_t { Ok, Fail, Delay, Dup };

struct OpFate {
  Fate fate = Fate::Ok;
  TimeNs delay = 0;  // extra charge when fate == Delay
};

/// Per-session injection counters (process-global, summed over ranks).
struct Summary {
  long long kills = 0;
  long long drops = 0;
  long long delays = 0;
  long long dups = 0;
  long long stalls = 0;
  long long truncations = 0;
};

/// True between start() and stop(). One relaxed atomic load; every runtime
/// hook checks this first, so fault-free runs take no other cost.
inline bool active() {
  return detail::g_active.load(std::memory_order_relaxed);
}

/// Arms `plan` for an SPMD run of `nranks` ranks. `seed` drives the
/// deterministic backoff jitter (derive it from the runtime seed so plan +
/// seed reproduces the schedule bit-for-bit). Call before run_spmd.
void start(int nranks, FaultPlan plan, std::uint64_t seed);

/// Disarms the session and releases its state.
void stop();

int session_nranks();

/// The retry discipline is process-global and survives session start/stop,
/// so knobs staged through the C API before a run apply to it.
RetryPolicy policy();
void set_policy(const RetryPolicy& p);

/// Bumped once per rank death. Survivors compare against their last
/// observed value to trigger recovery + termination-tree resplice.
std::uint64_t epoch();

bool alive(Rank r);
int alive_count();
std::vector<Rank> alive_ranks();

/// The first alive rank cyclically after `r` (kNoRank if none). All
/// survivors compute the same successor for a dead rank from the same
/// alive set, so exactly one recovery owner emerges per epoch.
Rank successor(Rank r);

/// Fail-stop check. Throws RankKilled when a Kill event for `me` is due
/// (virtual time under sim; poll count under the threads backend). Must be
/// called only while holding no locks.
void poll_safepoint(Rank me);

/// Consults Drop/Delay/Dup rules for a one-sided op `me` -> `target`.
OpFate one_sided_fate(OpKind op, Rank me, Rank target);

/// Consults Truncate rules for a steal hand-off: returns how many of
/// `want` tasks the thief may take (0 aborts the steal).
int truncate_steal(Rank thief, Rank victim, int want);

/// Extra time a lock holder must burn inside the critical section (0 when
/// no Stall rule fires). Skips whole-rank `for=` rules.
TimeNs stall_time(Rank holder);

/// Whole-rank stall: duration `me` must stall at a safepoint (0 when no
/// `stall:rank=,for=` rule is due). The suspicion-hazard primitive -- a
/// stall longer than the detector's confirm timeout makes survivors adopt
/// the rank's queue while it is still going to resume. Fires once per rule,
/// at/after `at` (sim) or after `after` safepoint polls (threads).
TimeNs rank_stall_time(Rank me);

/// Deterministic jittered exponential backoff for `me`'s `attempt`-th retry
/// (attempt counts from 0): base * 2^attempt, clamped to cap, with a
/// per-rank pseudo-random jitter in [50%, 100%] of that value.
TimeNs backoff(Rank me, int attempt);

/// Marks `r` dead without going through a Kill rule (used by tests).
/// Returns the new epoch. Throws outside an armed session or for an
/// out-of-range rank; the event timestamp comes from the same clamped
/// sim-clock helper poll_safepoint uses.
std::uint64_t mark_dead(Rank r);

Summary summary();

/// Copies of the armed plan's events of type `t` (empty when disarmed).
/// The elastic layer schedules from the plan's Join/Ckpt rules this way;
/// those two types are inert in the fault machinery itself (no matcher
/// fires them).
std::vector<FaultEvent> events_of(FaultType t);

}  // namespace scioto::fault
