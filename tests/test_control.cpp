// Adaptive control plane tests (src/control): rule parsing, the
// hysteresis/dwell rule engine as a pure state machine, KnobSet clamping,
// live knob flips through a running collection (the set_knob plumbing the
// control plane rides on), armed-controller UTS runs whose decision JSONL
// must be bit-deterministic across reruns on the sim backend, the
// zero-perturbation guarantee (an armed-but-quiet controller leaves the
// trace stream byte-identical to a controller-off run), composition with
// the failure detector (dead ranks never retune; wards inherit published
// knobs), the monitor's hot-victim digest, threads-backend smoke runs for
// TSan, and the scioto_ctl_* C API.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "control/control.hpp"
#include "detect/membership.hpp"
#include "fault/fault.hpp"
#include "fault/plan.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "scioto/scioto_c.h"
#include "scioto/task_collection.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

using namespace scioto;
using namespace scioto::testing;

namespace {

using control::Decision;
using control::Knob;
using control::kNumKnobs;
using control::KnobSet;
using control::RuleEngine;
using control::Rules;
using control::Signals;

constexpr int kChunk = static_cast<int>(Knob::StealChunk);
constexpr int kHalf = static_cast<int>(Knob::StealHalf);
constexpr int kRetarget = static_cast<int>(Knob::RetargetBudget);
constexpr int kRelease = static_cast<int>(Knob::ReleaseThreshold);
constexpr int kVset = static_cast<int>(Knob::VictimSetSize);

/// Stages a controller config for the enclosing scope and restores the
/// prior staged config on exit (run_spmd arms/disarms the session).
class CtlGuard {
 public:
  explicit CtlGuard(control::Mode m, TimeNs period = 0,
                    const Rules* rules = nullptr)
      : saved_(control::config()) {
    control::Config c = saved_;
    c.mode = m;
    if (period > 0) c.period = period;
    if (rules != nullptr) c.rules = *rules;
    control::set_config(c);
  }
  ~CtlGuard() { control::set_config(saved_); }

 private:
  control::Config saved_;
};

/// Applies the engine's decisions the way an owner would (unclamped here:
/// the unit tests drive the engine directly, without a KnobSet).
void apply_all(const std::vector<Decision>& ds, std::int64_t cur[kNumKnobs]) {
  for (const Decision& d : ds) cur[static_cast<int>(d.knob)] = d.value;
}

bool has_decision(const std::vector<Decision>& ds, Knob k, std::int64_t v) {
  for (const Decision& d : ds) {
    if (d.knob == k && d.value == v) return true;
  }
  return false;
}

/// The stock baseline the PR 3 queue starts from: chunk 10, fixed-width
/// steals, release threshold 20, retarget budget 4, unrestricted victims.
void stock_baseline(std::int64_t base[kNumKnobs]) {
  base[kChunk] = 10;
  base[kHalf] = 0;
  base[kRetarget] = 4;
  base[kRelease] = 20;
  base[kVset] = 0;
}

Signals imbalanced(std::uint64_t shared_depth = 0) {
  Signals s;
  s.cov = 2.0;
  s.have_cov = true;
  s.shared_depth = shared_depth;
  return s;
}

Signals calm_sig() {
  Signals s;
  s.cov = 0.1;
  s.have_cov = true;
  s.attempts = 10;
  s.steals = 10;  // success rate 1.0 >= succ_hi
  return s;
}

}  // namespace

// ---- Rules: parse / to_string ----

TEST(CtlRules, ToStringRoundTripsThroughParse) {
  Rules def;
  Rules parsed;
  std::string err;
  ASSERT_TRUE(Rules::parse(def.to_string(), &parsed, &err)) << err;
  EXPECT_EQ(parsed.to_string(), def.to_string());
}

TEST(CtlRules, ParseOverridesOnlyNamedKeys) {
  Rules r;
  std::string err;
  ASSERT_TRUE(Rules::parse(
      "dwell=5;hot_set=2;chunk_burst=32;release_min=4;cov_hi=1.5", &r, &err))
      << err;
  EXPECT_EQ(r.dwell, 5);
  EXPECT_EQ(r.hot_set, 2);
  EXPECT_EQ(r.chunk_burst, 32);
  EXPECT_EQ(r.release_min, 4);
  EXPECT_DOUBLE_EQ(r.cov_hi, 1.5);
  // Untouched keys keep their defaults.
  Rules def;
  EXPECT_DOUBLE_EQ(r.succ_lo, def.succ_lo);
  EXPECT_EQ(r.min_attempts, def.min_attempts);
  // Empty spec (and stray separators) are a no-op.
  Rules r2;
  ASSERT_TRUE(Rules::parse("", &r2, &err));
  ASSERT_TRUE(Rules::parse(";;dwell=2;;", &r2, &err)) << err;
  EXPECT_EQ(r2.dwell, 2);
}

TEST(CtlRules, ParseRejectsBadSpecsWithoutMutatingOutput) {
  const char* bad[] = {
      "nonsense",          // no key=value shape
      "dwell=abc",         // non-numeric value
      "frobnicate=1",      // unknown key
      "dwell=0",           // dwell must be >= 1
      "chunk_step=0",      // chunk_step must be >= 1
      "dwell=3;cov_hi",    // trailing junk pair
  };
  for (const char* spec : bad) {
    Rules r;
    r.hot_set = 3;  // sentinel: must survive a failed parse
    std::string err;
    EXPECT_FALSE(Rules::parse(spec, &r, &err)) << spec;
    EXPECT_FALSE(err.empty()) << spec;
    EXPECT_EQ(r.hot_set, 3) << spec << " mutated output on failure";
  }
}

// ---- KnobSet: clamping and change detection ----

TEST(CtlKnobs, SetClampsToInitBounds) {
  KnobSet ks;
  ks.init(/*chunk=*/10, /*chunk_max=*/64, /*steal_half=*/false,
          /*retarget_budget=*/4, /*release_threshold=*/20, /*nprocs=*/8);
  EXPECT_EQ(ks.get(Knob::StealChunk), 10);
  EXPECT_EQ(ks.get(Knob::StealHalf), 0);
  EXPECT_EQ(ks.get(Knob::RetargetBudget), 4);
  EXPECT_EQ(ks.get(Knob::ReleaseThreshold), 20);
  EXPECT_EQ(ks.get(Knob::VictimSetSize), 0);

  // The chunk may never exceed chunk_max: steal buffers are sized for it.
  EXPECT_TRUE(ks.set(Knob::StealChunk, 1000));
  EXPECT_EQ(ks.get(Knob::StealChunk), 64);
  EXPECT_TRUE(ks.set(Knob::StealChunk, 0));
  EXPECT_EQ(ks.get(Knob::StealChunk), 1);
  EXPECT_TRUE(ks.set(Knob::StealHalf, 5));
  EXPECT_EQ(ks.get(Knob::StealHalf), 1);
  // A release threshold of 0 means "always eligible"; nothing is lower.
  EXPECT_TRUE(ks.set(Knob::ReleaseThreshold, -5));
  EXPECT_EQ(ks.get(Knob::ReleaseThreshold), 0);
  // Victim set caps at nprocs - 1 (you cannot steal from yourself).
  EXPECT_TRUE(ks.set(Knob::VictimSetSize, 100));
  EXPECT_EQ(ks.get(Knob::VictimSetSize), 7);
  // A write that lands on the current value reports no change.
  EXPECT_FALSE(ks.set(Knob::VictimSetSize, 100));
  EXPECT_FALSE(ks.set(Knob::StealHalf, 1));
}

// ---- Rule engine: hysteresis, dwell, burst, unwind ----

TEST(CtlEngine, HighCovFiresOnlyAfterDwellEpochs) {
  Rules rules;  // dwell = 3
  std::int64_t cur[kNumKnobs];
  stock_baseline(cur);
  RuleEngine eng(rules, cur, /*nprocs=*/8);

  std::vector<Decision> ds;
  for (int epoch = 1; epoch < rules.dwell; ++epoch) {
    eng.step(imbalanced(), cur, &ds);
    EXPECT_TRUE(ds.empty()) << "fired at streak " << epoch;
  }
  eng.step(imbalanced(), cur, &ds);
  // The burst response: steal-half on, chunk cap opened to chunk_burst,
  // thieves steered at the hot set. No release change -- this rank's own
  // shared queue (depth 0) is not the imbalance.
  EXPECT_TRUE(has_decision(ds, Knob::StealHalf, 1));
  EXPECT_TRUE(has_decision(ds, Knob::StealChunk, rules.chunk_burst));
  EXPECT_TRUE(has_decision(ds, Knob::VictimSetSize, rules.hot_set));
  for (const Decision& d : ds) {
    EXPECT_NE(d.knob, Knob::ReleaseThreshold);
    EXPECT_EQ(d.reason, control::kReasonHighCov);
  }
  apply_all(ds, cur);

  // Streak persists but every changed knob is frozen by its dwell and
  // already at its target: no further decisions.
  ds.clear();
  eng.step(imbalanced(), cur, &ds);
  EXPECT_TRUE(ds.empty());
}

TEST(CtlEngine, ReleaseHalvesOnlyOnTheDeepRankWithFloor) {
  Rules rules;
  std::int64_t cur[kNumKnobs];
  stock_baseline(cur);
  RuleEngine eng(rules, cur, 8);
  std::vector<Decision> ds;
  // Shared depth 8*rel is the gate: one short of it never touches the
  // release threshold.
  for (int epoch = 0; epoch < 3 * rules.dwell; ++epoch) {
    eng.step(imbalanced(/*shared_depth=*/8 * 20 - 1), cur, &ds);
    apply_all(ds, cur);
    ds.clear();
  }
  EXPECT_EQ(cur[kRelease], 20);

  // At the gate it halves, clamped at release_min.
  std::int64_t base[kNumKnobs];
  stock_baseline(base);
  RuleEngine eng2(rules, base, 8);
  stock_baseline(cur);
  for (int epoch = 0; epoch < 8 * rules.dwell; ++epoch) {
    eng2.step(imbalanced(/*shared_depth=*/100000), cur, &ds);
    apply_all(ds, cur);
    ds.clear();
  }
  EXPECT_EQ(cur[kRelease], rules.release_min);
}

TEST(CtlEngine, LowSuccessGrowsChunkAdditivelyAfterDwell) {
  Rules rules;
  std::int64_t cur[kNumKnobs];
  stock_baseline(cur);
  RuleEngine eng(rules, cur, 8);
  Signals failing;
  failing.attempts = 10;
  failing.steals = 1;  // 0.1 < succ_lo

  std::vector<Decision> ds;
  for (int epoch = 1; epoch < rules.dwell; ++epoch) {
    eng.step(failing, cur, &ds);
    EXPECT_TRUE(ds.empty());
  }
  eng.step(failing, cur, &ds);
  EXPECT_TRUE(has_decision(ds, Knob::StealChunk, 10 + rules.chunk_step));
  EXPECT_TRUE(has_decision(ds, Knob::StealHalf, 1));
  apply_all(ds, cur);
  ds.clear();

  // The dwell freeze: the next dwell-1 epochs stay quiet even though the
  // condition still holds, then the chunk takes another additive step.
  for (int epoch = 1; epoch < rules.dwell; ++epoch) {
    eng.step(failing, cur, &ds);
    EXPECT_TRUE(ds.empty()) << "dwell freeze violated at +" << epoch;
  }
  eng.step(failing, cur, &ds);
  EXPECT_TRUE(has_decision(ds, Knob::StealChunk, 12 + rules.chunk_step));
}

TEST(CtlEngine, TooFewAttemptsNeverTriggersSuccessRules) {
  Rules rules;  // min_attempts = 4
  std::int64_t cur[kNumKnobs];
  stock_baseline(cur);
  RuleEngine eng(rules, cur, 8);
  Signals thin;
  thin.attempts = rules.min_attempts - 1;
  thin.steals = 0;  // 0% success -- but on too small a sample
  std::vector<Decision> ds;
  for (int epoch = 0; epoch < 10 * rules.dwell; ++epoch) {
    eng.step(thin, cur, &ds);
  }
  EXPECT_TRUE(ds.empty());
}

TEST(CtlEngine, SustainedLockBusyBuysARetargetHop) {
  Rules rules;
  std::int64_t cur[kNumKnobs];
  stock_baseline(cur);
  RuleEngine eng(rules, cur, 8);
  Signals busy;
  busy.attempts = 8;
  busy.steals = 6;  // healthy success: only the busy rule may fire
  busy.busy = 4;    // busy*4 >= attempts
  std::vector<Decision> ds;
  for (int epoch = 0; epoch < rules.dwell; ++epoch) {
    eng.step(busy, cur, &ds);
  }
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].knob, Knob::RetargetBudget);
  EXPECT_EQ(ds[0].value, 5);
  EXPECT_EQ(ds[0].reason, control::kReasonBusy);
}

TEST(CtlEngine, CalmUnwindsBurstBackToBaseline) {
  Rules rules;
  std::int64_t base[kNumKnobs];
  stock_baseline(base);
  std::int64_t cur[kNumKnobs];
  stock_baseline(cur);
  RuleEngine eng(rules, base, 8);
  std::vector<Decision> ds;

  // Drive into the full burst response (deep shared queue included).
  for (int epoch = 0; epoch < 8 * rules.dwell; ++epoch) {
    eng.step(imbalanced(/*shared_depth=*/100000), cur, &ds);
    apply_all(ds, cur);
    ds.clear();
  }
  EXPECT_EQ(cur[kChunk], rules.chunk_burst);
  EXPECT_EQ(cur[kHalf], 1);
  EXPECT_EQ(cur[kVset], rules.hot_set);
  EXPECT_EQ(cur[kRelease], rules.release_min);

  // A calm fleet decays everything back: chunk first (it stays the active
  // knob until it reaches baseline), then steal-half, the release
  // threshold doubling home, and the victim set back to uniform.
  bool saw_chunk_decay_before_half_restore = true;
  bool half_restored = false;
  for (int epoch = 0; epoch < 400; ++epoch) {
    eng.step(calm_sig(), cur, &ds);
    for (const Decision& d : ds) {
      EXPECT_EQ(d.reason, control::kReasonCalm);
      if (d.knob == Knob::StealHalf) half_restored = true;
      if (d.knob == Knob::StealChunk && half_restored) {
        saw_chunk_decay_before_half_restore = false;
      }
    }
    apply_all(ds, cur);
    ds.clear();
  }
  EXPECT_TRUE(saw_chunk_decay_before_half_restore);
  for (int k = 0; k < kNumKnobs; ++k) {
    EXPECT_EQ(cur[k], base[k]) << control::knob_name(static_cast<Knob>(k));
  }
  // Once home, calm epochs propose nothing.
  eng.step(calm_sig(), cur, &ds);
  eng.step(calm_sig(), cur, &ds);
  EXPECT_TRUE(ds.empty());
}

// ---- Live knob flips through a running collection (set_knob plumbing) ----

namespace {

struct FlipResult {
  TcStats stats;
  std::int64_t readback[kNumKnobs] = {};
};

/// A bursty binary-tree workload on 4 sim ranks. When `flip` is set,
/// rank 1 rewrites its knobs mid-process() after its 20th task; the
/// read-back values and the global stats come home for inspection.
FlipResult flip_workload(bool flip) {
  FlipResult out;
  run_sim(4, [&](pgas::Runtime& rt) {
    struct Node {
      int depth;
    };
    TcConfig tcc;
    tcc.chunk_size = 2;
    tcc.chunk_max = 64;  // headroom so the live chunk can be raised
    TaskCollection tc(rt, tcc);
    int executed_here = 0;
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      ctx.tc.runtime().charge(2000);
      if (flip && ctx.tc.runtime().me() == 1 && ++executed_here == 20) {
        // Every knob flips mid-run; each must come back live (clamped).
        EXPECT_EQ(ctx.tc.set_knob(Knob::StealChunk, 64), 64);
        EXPECT_EQ(ctx.tc.set_knob(Knob::StealHalf, 1), 1);
        EXPECT_EQ(ctx.tc.set_knob(Knob::RetargetBudget, 9), 9);
        EXPECT_EQ(ctx.tc.set_knob(Knob::ReleaseThreshold, 2), 2);
        EXPECT_EQ(ctx.tc.set_knob(Knob::VictimSetSize, 2), 2);
        EXPECT_EQ(ctx.tc.set_knob(Knob::StealChunk, 1000), 64);  // clamp
      }
      int d = ctx.body_as<Node>().depth;
      if (d > 0) {
        Task child = ctx.tc.task_create(sizeof(Node), ctx.header.callback);
        child.body_as<Node>().depth = d - 1;
        ctx.tc.add_local(child);
        ctx.tc.add_local(child);
      }
    });
    if (rt.me() == 0) {
      Task root = tc.task_create(sizeof(Node), h);
      root.body_as<Node>().depth = 11;
      tc.add_local(root);
    }
    tc.process();
    if (rt.me() == 1) {
      for (int k = 0; k < kNumKnobs; ++k) {
        out.readback[k] = tc.knob(static_cast<Knob>(k));
      }
    }
    TcStats g = tc.stats_global();
    if (rt.me() == 0) out.stats = g;
    tc.destroy();
  });
  return out;
}

}  // namespace

TEST(CtlPlumbing, SetKnobMidRunIsLiveAndChangesStealBehavior) {
  FlipResult base = flip_workload(false);
  FlipResult flip = flip_workload(true);
  // Same tree either way.
  EXPECT_EQ(base.stats.tasks_executed, flip.stats.tasks_executed);
  // The knobs stayed what the mid-run flip set them to...
  EXPECT_EQ(flip.readback[kChunk], 64);
  EXPECT_EQ(flip.readback[kHalf], 1);
  EXPECT_EQ(flip.readback[kRetarget], 9);
  EXPECT_EQ(flip.readback[kRelease], 2);
  EXPECT_EQ(flip.readback[kVset], 2);
  // ... and the queue/steal paths actually read them: rank 1 stealing
  // half with a wide cap (instead of fixed chunks of 2) must move the
  // fleet's steal traffic. If the flip were write-only (the pre-KnobSet
  // plumbing drift), both runs would be identical.
  EXPECT_NE(base.stats.tasks_stolen, flip.stats.tasks_stolen);
}

// ---- Armed controller on UTS: exactness + decision-log determinism ----

namespace {

/// A small bursty binomial tree (the T2 bench's shape, scaled down):
/// a wide root fan-out into subcritical subtrees.
apps::UtsParams bursty_tree() {
  apps::UtsParams p;
  p.tree = apps::UtsTree::Binomial;
  p.seed = 42;
  p.b0 = 1500;
  p.q = 0.110;
  p.m = 8;
  return p;
}

struct CtlRun {
  apps::UtsCounts counts;
  std::string decisions;
  control::Stats stats;
};

CtlRun run_uts_ctl(std::uint64_t seed,
                   pgas::BackendKind backend = pgas::BackendKind::Sim) {
  CtlGuard guard(control::Mode::Local, /*period=*/50'000);
  apps::UtsParams tree = bursty_tree();
  CtlRun out;
  run(8, backend,
      [&](pgas::Runtime& rt) {
        apps::UtsRunConfig rc;
        apps::UtsResult res = apps::uts_run_scioto(rt, tree, rc);
        if (rt.me() == 0) out.counts = res.counts;
      },
      seed);
  out.decisions = control::decisions_jsonl();
  out.stats = control::stats();
  return out;
}

}  // namespace

TEST(CtlUts, LocalControllerExactAndDeterministicOverEightSeeds) {
  const apps::UtsCounts expected = apps::uts_sequential(bursty_tree());
  std::uint64_t total_decisions = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CtlRun a = run_uts_ctl(seed);
    CtlRun b = run_uts_ctl(seed);
    EXPECT_TRUE(a.counts == expected) << "seed " << seed;
    // The full decision sequence -- every rank, every epoch, every knob
    // value, every virtual timestamp -- must replay bit-identically.
    EXPECT_EQ(a.decisions, b.decisions) << "seed " << seed;
    EXPECT_EQ(a.stats.decisions, b.stats.decisions);
    total_decisions += a.stats.decisions;
  }
  // The root burst is exactly the imbalance the rules target: across
  // eight schedules the controller cannot have sat on its hands.
  EXPECT_GT(total_decisions, 0u);
}

// ---- Zero perturbation: a quiet controller leaves the trace untouched ----

TEST(CtlOff, QuietControllerTraceIdenticalToOff) {
  auto traced_run = [&](bool armed) {
    // dwell too large to ever reach: the armed controller polls, scrapes,
    // and runs the monitor every epoch but may not perturb the schedule.
    Rules inert;
    inert.dwell = 1000000;
    CtlGuard guard(armed ? control::Mode::Local : control::Mode::Off,
                   /*period=*/50'000, &inert);
    trace::start(4);
    run_sim(4, [&](pgas::Runtime& rt) {
      apps::UtsRunConfig rc;
      rc.chunk = 2;
      (void)apps::uts_run_scioto(rt, apps::uts_tiny(), rc);
    });
    std::vector<trace::Event> evs = trace::all_events();
    trace::stop();
    return evs;
  };
  std::vector<trace::Event> off = traced_run(false);
  std::vector<trace::Event> on = traced_run(true);
  ASSERT_FALSE(off.empty());
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off[i].t, on[i].t) << "event " << i;
    ASSERT_EQ(off[i].kind, on[i].kind) << "event " << i;
    ASSERT_EQ(off[i].rank, on[i].rank) << "event " << i;
    ASSERT_EQ(off[i].a, on[i].a) << "event " << i;
    ASSERT_EQ(off[i].b, on[i].b) << "event " << i;
    ASSERT_EQ(off[i].c, on[i].c) << "event " << i;
  }
}

// ---- Composition with the failure detector ----

TEST(CtlFaults, DeadRankNeverRetunesWardInheritsPublishedKnobs) {
  metrics::start(2);
  control::Config cfg;
  cfg.mode = control::Mode::Local;
  cfg.period = 1000;
  control::start(2, cfg);
  detect::start(2);

  KnobSet ward, victim;
  ward.init(10, 64, false, 4, 20, 2);
  victim.init(10, 64, false, 4, 20, 2);
  control::attach(0, &ward);
  control::attach(1, &victim);

  // The victim diverges from stock before dying (say, its own controller
  // had opened the chunk), and the divergence is published.
  victim.set(Knob::StealChunk, 33);
  victim.set(Knob::StealHalf, 1);
  control::republish(1);

  {
    std::int64_t pub0[kNumKnobs];
    ASSERT_TRUE(control::published(1, pub0));
    EXPECT_EQ(pub0[kChunk], 33);
  }

  // Death: the detector fences the rank; its epochs must stop cold.
  ASSERT_TRUE(detect::confirm_dead(1, /*by=*/0));
  const std::uint64_t epochs_before = control::stats().epochs;
  control::poll_epoch(1, 10'000, 0);
  control::poll_epoch(1, 20'000, 0);
  EXPECT_EQ(control::stats().epochs, epochs_before)
      << "a dead rank evaluated a controller epoch";

  // The published row outlives the owner...
  control::detach(1);
  std::int64_t pub[kNumKnobs];
  ASSERT_TRUE(control::published(1, pub));
  EXPECT_EQ(pub[kChunk], 33);
  EXPECT_EQ(pub[kHalf], 1);

  // ... so the ward adopting its queue inherits the tuned values.
  control::inherit(0, 1);
  EXPECT_EQ(ward.get(Knob::StealChunk), 33);
  EXPECT_EQ(ward.get(Knob::StealHalf), 1);
  EXPECT_EQ(control::stats().inherits, 1u);
  bool saw_inherit = false;
  for (const control::DecisionRecord& d : control::decisions()) {
    if (d.reason == control::kReasonInherit) saw_inherit = true;
  }
  EXPECT_TRUE(saw_inherit);
  // Inheriting values the ward already holds is a no-op, not a new event.
  control::inherit(0, 1);
  EXPECT_EQ(control::stats().inherits, 1u);

  detect::stop();
  control::stop();
  metrics::stop();
}

TEST(CtlFaults, ControllerComposesWithDetectorKillRecovery) {
  // The integration form: controller + heartbeat detector + injected
  // kill, traversal still exact. (The fault plan kills rank 2 early,
  // while the root burst -- the thing the controller reacts to -- is
  // still draining.)
  const apps::UtsParams tree = apps::uts_small();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  detect::Config dc = detect::config();
  dc.enabled = true;
  detect::set_config(dc);
  CtlGuard guard(control::Mode::Local, /*period=*/50'000);
  fault::start(8, fault::FaultPlan::parse("kill:rank=2,at=400us"), 42);
  apps::UtsCounts counts;
  run_sim(8, [&](pgas::Runtime& rt) {
    apps::UtsRunConfig rc;
    apps::UtsResult res = apps::uts_run_scioto_ft(rt, tree, rc);
    if (rt.me() != 2) counts = res.counts;
  });
  fault::stop();
  dc.enabled = false;
  detect::set_config(dc);
  EXPECT_TRUE(counts == expected);
  // No decision may postdate the kill on the dead rank's behalf.
  for (const control::DecisionRecord& d : control::decisions()) {
    if (d.rank == 2) {
      EXPECT_LT(d.t, 500'000) << "dead rank 2 applied a knob change at t="
                              << d.t;
    }
  }
}

// ---- Hot-victim digest ----

TEST(CtlDigest, HotVictimsTracksDeepestAliveRanks) {
  metrics::start(4);
  metrics::MonitorOptions mopts;
  metrics::monitor_start(4, mopts);
  control::Config cfg;
  cfg.mode = control::Mode::Local;
  control::start(4, cfg);

  Rank hot[control::kMaxHotVictims];
  EXPECT_EQ(control::hot_victims(hot), 0) << "digest before any sample";

  metrics::gauge_set(0, metrics::Gauge::QueueShared, 5);
  metrics::gauge_set(1, metrics::Gauge::QueueShared, 100);
  metrics::gauge_set(2, metrics::Gauge::QueueShared, 0);  // empty: excluded
  metrics::gauge_set(3, metrics::Gauge::QueueShared, 50);
  metrics::monitor_sample(1000);
  ASSERT_EQ(control::hot_victims(hot), 3);
  EXPECT_EQ(hot[0], 1);  // descending shared depth
  EXPECT_EQ(hot[1], 3);
  EXPECT_EQ(hot[2], 0);

  // A dead rank drops out of the digest no matter how deep its queue
  // still reads (its patch stays scrapeable; thieves must not be steered
  // at a corpse).
  metrics::monitor_set_liveness([](Rank r) {
    return r == 1 ? metrics::RankState::Dead : metrics::RankState::Alive;
  });
  metrics::monitor_sample(2000);
  ASSERT_EQ(control::hot_victims(hot), 2);
  EXPECT_EQ(hot[0], 3);
  EXPECT_EQ(hot[1], 0);

  control::stop();
  metrics::monitor_stop();
  metrics::stop();
}

// ---- Threads backend (wall-clock pacing; the TSan job runs these) ----

TEST(CtlThreads, UtsExactUnderThreadsBackend) {
  const apps::UtsParams tree = apps::uts_tiny();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  // A short wall-clock period so epochs actually fire inside a tiny run.
  CtlGuard guard(control::Mode::Local, /*period=*/100'000);
  apps::UtsCounts counts;
  std::mutex mu;
  run_threads(4, [&](pgas::Runtime& rt) {
    apps::UtsRunConfig rc;
    rc.chunk = 2;
    apps::UtsResult res = apps::uts_run_scioto(rt, tree, rc);
    std::lock_guard<std::mutex> lk(mu);
    counts = res.counts;
  });
  EXPECT_TRUE(counts == expected);
  // Wall-clock pacing means no decision-count guarantees -- the property
  // under test is exactness plus TSan-cleanliness of the armed paths.
}

// ---- C API ----

TEST(CtlCApi, ModePeriodRulesRoundTrip) {
  ASSERT_STREQ(scioto_ctl_mode(), "off");
  EXPECT_EQ(scioto_ctl_mode_set("local"), 0);
  EXPECT_STREQ(scioto_ctl_mode(), "local");
  EXPECT_EQ(scioto_ctl_mode_set("bogus"), -1);
  EXPECT_STREQ(scioto_ctl_mode(), "local") << "bad name must stage nothing";
  EXPECT_EQ(scioto_ctl_mode_set("global"), -1) << "no fleet-planner mode";
  EXPECT_EQ(scioto_ctl_mode_set("off"), 0);

  int64_t period = scioto_ctl_period_ns();
  EXPECT_GT(period, 0);
  scioto_ctl_set_period_ns(250'000);
  EXPECT_EQ(scioto_ctl_period_ns(), 250'000);
  scioto_ctl_set_period_ns(period);

  char errbuf[128] = {};
  EXPECT_EQ(scioto_ctl_rules_set("dwell=2;hot_set=2", errbuf,
                                 sizeof(errbuf)),
            0);
  EXPECT_EQ(control::config().rules.dwell, 2);
  EXPECT_EQ(scioto_ctl_rules_set("dwell=0", errbuf, sizeof(errbuf)), -1);
  EXPECT_NE(errbuf[0], '\0');
  EXPECT_EQ(control::config().rules.dwell, 2) << "bad spec staged";
  // NULL restores the defaults.
  EXPECT_EQ(scioto_ctl_rules_set(nullptr, nullptr, 0), 0);
  EXPECT_EQ(control::config().rules.dwell, Rules().dwell);

  scioto_ctl_stats_t st;
  scioto_ctl_stats_get(&st);  // callable any time; zeroes before any run
}

