// Process-global membership view maintained by the heartbeat failure
// detector (detect.hpp), plus its configuration and counters.
//
// This is the layer the runtime consults instead of the fault oracle: every
// "is rank r alive?" question in the recovery paths (queue adoption, txn
// replay, termination resplice, dead-rank add redirects) goes through
// detect::alive()/epoch()/successor(). When the detector is disarmed these
// queries fall straight through to fault:: -- the omniscient oracle -- so a
// detector-off run is bit-identical to the pre-detector runtime and the
// oracle is demoted to (a) test-only ground truth and (b) the fallback
// implementation.
//
// When the detector is armed, the view is fed exclusively by probe
// observations: confirm_dead() is called by whichever prober first sees a
// peer silent past the confirm timeout, and rejoin() by a falsely-suspected
// rank that woke up, observed a fence on its queue, and re-entered the
// computation. Both bump the membership epoch, which is what the
// termination tree and the ward recomputation key off.
//
// Collectives (barriers, allreduce) deliberately do NOT consult this view:
// a falsely-suspected rank still executes and still arrives at the barrier,
// so skipping it based on suspicion would wedge or corrupt the collective.
// They stay on fault::alive(), the ground truth of which ranks actually
// stopped executing. See DESIGN.md "Detector-mode recovery".
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "base/types.hpp"

namespace scioto::detect {

namespace detail {
// The session flag behind active(), inline so every probe site reads it
// without a call. Only start()/stop() store it (release order).
inline std::atomic<bool> g_active{false};
}  // namespace detail

/// Detector tuning. Periods and timeouts are virtual time under the sim
/// backend and wall-clock time under threads; the defaults are sized for
/// the sim machine models (suspect/confirm sit well above the heartbeat
/// period but below typical fault-plan stall durations, and confirm_after
/// clears the termination-broadcast tail so an idle run never false-kills).
struct Config {
  bool enabled = false;          // staged knob: arm the detector in run_spmd
  TimeNs hb_period = us(5);      // own-heartbeat publish period
  TimeNs probe_period = us(10);  // per-neighbor probe period
  TimeNs suspect_after = us(100);   // silence before alive -> suspect
  TimeNs confirm_after = us(400);   // silence before suspect -> dead
  int fanout = 2;                // neighbors probed per rank
};

/// Per-session detector counters (process-global, summed over ranks).
struct Stats {
  std::uint64_t heartbeats = 0;   // own-counter publishes
  std::uint64_t probes = 0;       // one-sided heartbeat reads issued
  std::uint64_t suspects = 0;     // alive -> suspect transitions observed
  std::uint64_t refutes = 0;      // suspect -> alive (heartbeat advanced)
  std::uint64_t confirms = 0;     // suspect -> confirmed-dead transitions
  std::uint64_t fence_aborts = 0; // owner observed an adoption fence
  std::uint64_t rejoins = 0;      // falsely-suspected ranks re-admitted
  std::uint64_t joins = 0;        // ranks admitted into an elastic fleet
  std::uint64_t grows = 0;        // admission batches (epoch bumps for joins)
  std::uint64_t max_detect_latency = 0;  // ns, worst observed silence at a
                                         // death confirmation (true kill ->
                                         // confirm latency: trace analysis)
};

/// The staged configuration. Like fault::policy(), it is process-global and
/// survives session start/stop so C-API setters before run_spmd apply.
Config config();
void set_config(const Config& c);

/// True when the staged config asks for the detector (knob, not armed).
bool enabled();

/// True between start() and stop(): the view answers from probe
/// observations instead of falling back to the fault oracle.
inline bool active() {
  return detail::g_active.load(std::memory_order_relaxed);
}

/// Arms the membership view for `nranks` ranks, all initially alive at
/// epoch equal to the current fault epoch (so resplice logic sees one
/// monotone counter regardless of which layer bumps it).
///
/// `initial_joined` < nranks (elastic mode) parks ranks
/// [initial_joined, nranks) in the NotJoined state: they are not alive
/// (never steal victims, never probed, no termination-tree seat) but they
/// are not dead either -- wards must not adopt their queues, which is what
/// joined() distinguishes. When initial_joined < nranks the epoch is
/// bumped once past the seed so every joined rank resplices its tree over
/// the joined subset on its first TD step.
void start(int nranks, int initial_joined = -1);
void stop();

/// Membership queries. Armed: the detector's converged view. Disarmed:
/// forwarded to fault:: so all call sites work identically in oracle mode.
std::uint64_t epoch();
bool alive(Rank r);
int alive_count();
std::vector<Rank> alive_ranks();

/// First alive rank cyclically after `r` under this view (kNoRank if
/// none). Same agreement property as fault::successor: all ranks with the
/// same view compute the same recovery owner.
Rank successor(Rank r);

/// Transitions `r` to confirmed-dead on behalf of prober `by`. Returns
/// true iff this call won the transition (exactly one prober per death
/// bumps the epoch and gets to trace ConfirmDead). No-op when disarmed.
bool confirm_dead(Rank r, Rank by);

/// Re-admits a falsely-suspected rank: marks it alive again and bumps the
/// epoch so every rank resplices it back into the termination tree and
/// ward assignments. Returns the new epoch.
std::uint64_t rejoin(Rank r);

/// True unless `r` is parked in the NotJoined state. Disarmed (and for
/// out-of-range ranks) every rank counts as joined: the distinction only
/// exists in an elastic session. A rank that is dead is still "joined" --
/// joined() answers "has this rank ever been part of the fleet", which is
/// what the ward table keys off (unjoined queues must never be adopted;
/// dead ones must).
bool joined(Rank r);

/// Admits a batch of NotJoined ranks under ONE epoch bump: each becomes
/// Alive (steal victim/thief, tree seat on the next resplice), stats.joins
/// grows by the batch size and stats.grows by one. Returns the new epoch.
/// Ranks already joined are skipped (the batch may race a rejoin).
std::uint64_t join_ranks(const std::vector<Rank>& rs);

/// Record a kill->confirm detection latency sample (analysis + C API).
void note_detect_latency(TimeNs latency);
void note_fence_abort();

/// Prober-side suspicion tally: a prober calls note_suspect(r, true) on an
/// alive -> suspect transition and (r, false) when the suspicion resolves
/// (refute or confirmation). suspected(r) is true while any prober holds a
/// live suspicion -- the signal the telemetry monitor's dashboard and
/// detector-state rollup render. No-op / false when disarmed.
void note_suspect(Rank r, bool suspected);
bool suspected(Rank r);

Stats stats();
void add_heartbeats(std::uint64_t n);
void add_probes(std::uint64_t n);
void add_suspects(std::uint64_t n);
void add_refutes(std::uint64_t n);

}  // namespace scioto::detect
