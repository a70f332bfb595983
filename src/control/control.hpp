// Adaptive control plane: closes the metrics -> knobs loop online.
//
// PR 5 built the global-view telemetry (per-rank counters, fleet CoV/Gini
// imbalance, steal-success rate) and PR 3 built the knobs (chunk size,
// steal-half, aborting steals, release threshold) -- this subsystem
// connects them. A feedback controller periodically reads tear-free
// metric snapshots and retunes each rank's live KnobSet (knobs.hpp)
// through a shared hysteresis/epoch rule engine.
//
// Every rank runs its own controller inside the scheduling loop. At each
// virtual-time epoch it reads its own counters through the metrics fast
// path (own-patch relaxed loads, no seqlock scrape), folds in a cheap
// fleet digest the monitor publishes (CoV of queue depths, deepest
// ranks), and retunes its own knobs.
//
// The knobs themselves are only ever written from the owning rank's
// context, so the queue/steal hot paths read plain (non-atomic) values;
// all cross-rank traffic goes through this session's atomic rows
// (published knobs, fleet digest) -- the single-address-space analog of
// a one-sided knob segment.
//
// Rule engine: additive-increase of the steal chunk on sustained steal
// failure; on sustained fleet imbalance, steal-half plus an opened chunk
// cap (with steal-half the chunk only caps min(ceil(depth/2), cap), so a
// wide cap moves the burst without overshooting shallow victims), an
// earlier release on the deep rank only, and a restricted victim set
// that steers thieves at the deepest ranks in the monitor digest --
// random victim choice finds a single deep rank with probability 1/n,
// and every miss inflates the thief's steal backoff; decay back toward
// the configured baseline when the fleet is calm; and per-knob dwell
// epochs so one decision suppresses further changes to the same knob --
// hysteresis against oscillation.
//
// Determinism: under the sim backend, local epochs fire at virtual-time
// deadlines inside the scheduling loop, the digest is produced
// by the monitor's deterministic virtual-time sampler, and the engine is
// a pure integer/double state machine -- so the full decision sequence is
// bit-deterministic across reruns. Under the threads backend every
// cross-thread word is an atomic and decisions are wall-clock-paced
// (TSan-clean, not deterministic).
//
// Composition with faults: a controller never retunes a fenced or dead
// rank (it checks its own liveness before deciding), and a ward that adopts a
// dead rank's queue inherits the victim's last *published* knobs --
// published rows outlive the owner precisely so adoption can read them.
//
// Gating (same discipline as trace/ and metrics/): nothing happens until
// start(); armed by SCIOTO_CONTROLLER=off|local (+
// SCIOTO_CTL_PERIOD, SCIOTO_CTL_RULES) or the scioto_ctl_* C API. A
// disarmed scheduler hook costs one inline relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hpp"
#include "control/knobs.hpp"

namespace scioto::control {

namespace detail {
// The session flag behind active(), inline so every probe site reads it
// without a call. Only start()/stop() store it (release order).
inline std::atomic<bool> g_active{false};
}  // namespace detail

enum class Mode : int { Off, Local };

const char* mode_name(Mode m);
bool mode_from_name(const std::string& s, Mode* out);

// ---- Rule engine parameters (SCIOTO_CTL_RULES / scioto_ctl_rules_set) ----

struct Rules {
  double succ_lo = 0.50;   // steal success below this = failing
  double succ_hi = 0.90;   // steal success above this = succeeding
  double cov_hi = 1.00;    // fleet CoV above this = imbalanced
  double cov_lo = 0.30;    // fleet CoV below this = calm
  int dwell = 3;           // epochs a condition must hold, and epochs a
                           // changed knob stays frozen afterwards
  int chunk_step = 2;      // additive chunk increase per decision
  std::uint64_t min_attempts = 4;  // ignore success rate on fewer samples
  std::int64_t release_min = 8;    // floor for the release threshold
                                   // (lower makes shallow queues churn
                                   // publish/reacquire)
  std::int64_t chunk_burst = 64;   // cap opened on sustained imbalance
                                   // (owner's KnobSet clamps at chunk_max)
  int hot_set = 1;         // imbalanced fleet: steer thieves at the
                           // hot_set deepest ranks (digest); 0 disables

  /// Parses "key=value;key=value" (keys are the field names above).
  /// On failure returns false and explains in *err.
  static bool parse(const std::string& spec, Rules* out, std::string* err);
  std::string to_string() const;
};

struct Config {
  Mode mode = Mode::Off;
  TimeNs period = 100'000;  // controller epoch length (ns)
  Rules rules;
};

/// Staged configuration consumed by pgas::run_spmd (C API knob; env vars
/// override) -- same discipline as metrics::config().
Config config();
void set_config(const Config& cfg);

// ---- Rule engine (pure, deterministic, unit-testable) ----

struct Signals {
  std::uint64_t attempts = 0;      // steal attempts this epoch (delta)
  std::uint64_t steals = 0;        // successful steals this epoch (delta)
  std::uint64_t busy = 0;          // lock-busy bounces this epoch (delta)
  std::uint64_t shared_depth = 0;  // rank's stealable depth right now
  double cov = 0.0;                // fleet queue-depth CoV
  bool have_cov = false;           // digest available yet?
};

enum Reason : int {
  kReasonStealFail = 0,  // sustained steal failure
  kReasonHighCov = 1,    // sustained fleet imbalance
  kReasonCalm = 2,       // sustained balance + steal success
  kReasonBusy = 3,       // sustained lock-busy bounces
  kReasonInherit = 4,    // adopted a dead rank's published knobs
};
const char* reason_name(int r);

struct Decision {
  Knob knob;
  std::int64_t value;  // desired value (owner clamps through its KnobSet)
  int reason;
};

class RuleEngine {
 public:
  /// `baseline` holds the knob values the config started from (decrease
  /// rules decay toward them); `nprocs` sizes the restricted victim set.
  RuleEngine(const Rules& rules, const std::int64_t baseline[kNumKnobs],
             int nprocs);
  RuleEngine() = default;

  /// One controller epoch: folds the signals into the streak/dwell state
  /// and appends the decisions (if any) to *out. `cur` holds the knob
  /// values the decisions are relative to.
  void step(const Signals& s, const std::int64_t cur[kNumKnobs],
            std::vector<Decision>* out);

 private:
  void propose(Knob k, std::int64_t v, int reason,
               const std::int64_t cur[kNumKnobs],
               std::vector<Decision>* out);

  Rules rules_;
  std::int64_t base_[kNumKnobs] = {};
  int nprocs_ = 0;
  int dwell_left_[kNumKnobs] = {};
  int lo_succ_streak_ = 0;
  int hi_cov_streak_ = 0;
  int calm_streak_ = 0;
  int busy_streak_ = 0;
};

// ---- Session ----

/// True between start() and stop(); one relaxed atomic load.
inline bool active() {
  return detail::g_active.load(std::memory_order_relaxed);
}
Mode mode();
TimeNs period();

/// Allocates the per-rank rows (published knobs, engine state), installs
/// the digest hook into the fleet monitor (metrics/monitor.hpp), and
/// begins controlling.
void start(int nranks, const Config& cfg);
void stop();

// ---- Owner-side hooks (called from TaskCollection on the owning rank) ----

/// Registers rank r's KnobSet and publishes its initial values.
void attach(Rank r, KnobSet* knobs);
void detach(Rank r);

/// Cheap per-iteration check: is a controller epoch due for rank r?
bool poll_due(Rank r, TimeNs now);

/// Runs a due epoch: evaluates the rule engine over this epoch's signals
/// and applies its decisions. Never retunes a rank the detector considers
/// fenced/dead.
void poll_epoch(Rank r, TimeNs now, std::uint64_t shared_depth);

/// Ward-side adoption: rank `me` inherits dead rank `dead`'s last
/// published knobs into its own KnobSet.
void inherit(Rank me, Rank dead);

/// Re-copies rank r's attached KnobSet into its published row. Called by
/// TaskCollection::set_knob after a direct (C API) knob write so the
/// dashboard and future wards see the new values.
void republish(Rank r);

// ---- Cross-rank reads ----

/// Copies rank r's published knob row; false if r never published.
bool published(Rank r, std::int64_t out[kNumKnobs]);

/// The monitor digest's deepest alive ranks (descending depth), at most
/// kMaxHotVictims of them; returns the count (0 before the first sample
/// or when every queue is empty). One relaxed atomic load -- cheap
/// enough for the steal path's victim selection.
inline constexpr int kMaxHotVictims = 4;
int hot_victims(Rank out[kMaxHotVictims]);

/// One-line "c=10 h=1 r=20 t=4 v=0" rendering for the live dashboard;
/// empty when r never published or no session is active.
std::string knobs_text(Rank r);

// ---- Decision log (tests / JSONL export) ----

struct DecisionRecord {
  TimeNs t = 0;
  Rank rank = 0;        // rank whose knob changed
  Knob knob = Knob::StealChunk;
  std::int64_t value = 0;
  int reason = 0;
};

std::vector<DecisionRecord> decisions();
std::string decisions_jsonl();

struct Stats {
  std::uint64_t epochs = 0;             // local epochs evaluated
  std::uint64_t decisions = 0;          // knob changes applied by owners
  std::uint64_t inherits = 0;           // adoption-time knob inheritances
};
Stats stats();

}  // namespace scioto::control
