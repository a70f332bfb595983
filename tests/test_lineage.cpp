// Tests of causal task lineage: id packing, session lifecycle, 8-seed
// determinism of the merged causal timeline, happens-before validation
// across both backends and all three steal paths, steal-chain
// conservation under a kill-a-rank fault plan, lineage-off traces
// carrying no lineage events, and the C API round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "fault/fault.hpp"
#include "scioto/scioto_c.h"
#include "scioto/task_collection.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

namespace scioto {
namespace {

using pgas::Runtime;

// ---- Id packing and session lifecycle (no SPMD run required) ----

TEST(LineageId, PacksOriginAndSequence) {
  static_assert(sizeof(trace::lineage::LineageRec) == 24);
  const std::uint64_t id = trace::lineage::make_id(/*origin=*/5, /*seq=*/77);
  EXPECT_NE(id, 0u) << "id 0 is reserved for 'no task'";
  EXPECT_EQ(trace::lineage::id_origin(id), 5);
  EXPECT_EQ(trace::lineage::id_seq(id), 77u);
  // Origin 0's first id is still nonzero (the rank is salted by +1).
  EXPECT_NE(trace::lineage::make_id(0, 0), 0u);
  EXPECT_EQ(trace::lineage::id_origin(trace::lineage::make_id(0, 0)), 0);
}

TEST(LineageSession, LifecycleAndPerRankCounters) {
  EXPECT_FALSE(trace::lineage::active());
  EXPECT_EQ(trace::lineage::rec_bytes(), 0u);
  EXPECT_EQ(trace::lineage::current(0), 0u);  // no-op when inactive

  trace::lineage::start(3);
  EXPECT_TRUE(trace::lineage::active());
  EXPECT_EQ(trace::lineage::session_nranks(), 3);
  EXPECT_EQ(trace::lineage::rec_bytes(), sizeof(trace::lineage::LineageRec));

  const std::uint64_t a0 = trace::lineage::next_id(0);
  const std::uint64_t a1 = trace::lineage::next_id(0);
  const std::uint64_t b0 = trace::lineage::next_id(1);
  EXPECT_NE(a0, a1);
  EXPECT_NE(a0, b0) << "ids are rank-salted, never colliding across ranks";
  EXPECT_EQ(trace::lineage::id_seq(a1), trace::lineage::id_seq(a0) + 1);

  EXPECT_EQ(trace::lineage::current(2), 0u);
  trace::lineage::set_current(2, a0);
  EXPECT_EQ(trace::lineage::current(2), a0);
  trace::lineage::stop();
  EXPECT_FALSE(trace::lineage::active());
}

// ---- Traced workload fixture ----

struct LineageRun {
  std::string json;
  std::vector<trace::Event> events;
  trace::LineageReport rep;
  TcStats stats;
  std::uint64_t dropped = 0;
  int nranks = 0;
};

LineageRun run_traced_uts(std::uint64_t seed, pgas::BackendKind backend,
                          QueueMode mode = QueueMode::Split,
                          bool lineage = true,
                          const std::string& fault_plan = "") {
  LineageRun out;
  out.nranks = 4;
  apps::UtsParams tree = apps::uts_small();
  apps::UtsRunConfig rc;
  rc.chunk = 4;
  rc.queue_mode = mode;
  apps::UtsResult res;
  trace::start(out.nranks, /*capacity_per_rank=*/1 << 18);
  if (lineage) {
    trace::lineage::start(out.nranks);
  }
  const bool faulting = !fault_plan.empty();
  if (faulting) {
    fault::start(out.nranks, fault::FaultPlan::parse(fault_plan), seed);
  }
  testing::run(
      out.nranks, backend,
      [&](Runtime& rt) {
        apps::UtsResult mine = faulting ? apps::uts_run_scioto_ft(rt, tree, rc)
                                        : apps::uts_run_scioto(rt, tree, rc);
        if (rt.me() == 0 || faulting) {
          res = mine;  // survivors all publish the reduced result
        }
      },
      seed);
  if (faulting) {
    fault::stop();
  }
  out.json = trace::chrome_trace_json();
  out.events = trace::all_events();
  out.stats = res.stats;
  out.dropped = trace::total_dropped();
  out.rep = trace::lineage_report(out.events, out.nranks, out.dropped);
  if (lineage) {
    trace::lineage::stop();
  }
  trace::stop();
  return out;
}

/// Flattens the merged causal timeline for bit-for-bit comparison.
std::string timeline_fingerprint(const trace::LineageReport& rep) {
  std::string out;
  for (const trace::LineageSpan& s : rep.spans) {
    out += std::to_string(s.id) + "/" + std::to_string(s.parent) + ":" +
           std::to_string(s.spawn_rank) + "@" + std::to_string(s.spawn_t) +
           "->" + std::to_string(s.exec_rank) + "@" +
           std::to_string(s.exec_t) + "+" + std::to_string(s.exec_dur) +
           "h" + std::to_string(s.hops);
    for (const trace::LineageMigration& m : s.migrations) {
      out += "|" + std::to_string(m.victim) + ">" + std::to_string(m.thief) +
             "@" + std::to_string(m.t);
    }
    out += "\n";
  }
  return out;
}

// ---- Determinism: 8 seeds, two sim runs each ----

TEST(LineageDeterminism, MergedTimelineIsBitIdenticalAcrossEightSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    LineageRun a = run_traced_uts(seed, pgas::BackendKind::Sim);
    LineageRun b = run_traced_uts(seed, pgas::BackendKind::Sim);
    ASSERT_FALSE(a.rep.spans.empty()) << "seed " << seed;
    EXPECT_EQ(a.json, b.json) << "seed " << seed;
    EXPECT_EQ(timeline_fingerprint(a.rep), timeline_fingerprint(b.rep))
        << "seed " << seed;
    // The critical path is a pure function of the timeline, so it must be
    // reproducible too.
    trace::CriticalPath ca = trace::critical_path(a.rep, a.events, a.nranks);
    trace::CriticalPath cb = trace::critical_path(b.rep, b.events, b.nranks);
    EXPECT_EQ(ca.length, cb.length) << "seed " << seed;
    EXPECT_EQ(ca.terminal_id, cb.terminal_id) << "seed " << seed;
    EXPECT_EQ(ca.tasks, cb.tasks) << "seed " << seed;
  }
}

// ---- Happens-before validation: backends x steal paths ----

TEST(LineageHappensBefore, HoldsOnBothBackendsAndAllThreeStealPaths) {
  // The three steal paths: blocking locked, trylock-abort locked, and the
  // lockfree CAS claim.
  struct StealPath {
    const char* name;
    QueueMode mode;
  };
  const StealPath paths[] = {{"locked", QueueMode::Split},
                             {"aborting", QueueMode::Aborting},
                             {"lockfree", QueueMode::LockFree}};
  for (auto backend : {pgas::BackendKind::Sim, pgas::BackendKind::Threads}) {
    for (const StealPath& path : paths) {
      SCOPED_TRACE(testing::backend_name(backend) + "/" + path.name);
      LineageRun run = run_traced_uts(21, backend, path.mode);
      ASSERT_EQ(run.dropped, 0u);
      EXPECT_TRUE(run.rep.causal_order_ok())
          << "first violation: " << run.rep.violations.front();
      EXPECT_EQ(run.rep.hop_mismatches, 0u)
          << "fault-free hops must equal the migration-edge count";
      // Reconciliation with TcStats: every executed task was spawned
      // exactly once, and every stolen task crossed exactly one
      // MigrateEdge per steal.
      EXPECT_EQ(run.rep.spawns, run.stats.tasks_executed);
      EXPECT_EQ(run.rep.execs, run.stats.tasks_executed);
      EXPECT_EQ(run.rep.migrations, run.stats.tasks_stolen);
      trace::StealMatrix sm = trace::steal_matrix(run.events, run.nranks);
      EXPECT_EQ(run.rep.migrations, sm.total_tasks());
      EXPECT_GT(run.rep.migrations, 0u) << "UTS on 4 ranks should steal";
    }
  }
}

TEST(LineageAnalysis, CriticalPathIsContiguousAndReconciles) {
  LineageRun run = run_traced_uts(33, pgas::BackendKind::Sim);
  trace::CriticalPath cp = trace::critical_path(run.rep, run.events,
                                                run.nranks);
  ASSERT_FALSE(cp.segments.empty());
  // Segments tile [start, terminal-finish) with no gaps or overlaps, so
  // exec + queue blame sums exactly to the path length -- and so does the
  // per-rank decomposition.
  TimeNs blame_sum = 0;
  for (std::size_t i = 0; i < cp.segments.size(); ++i) {
    const trace::CritSegment& seg = cp.segments[i];
    EXPECT_LE(seg.t0, seg.t1);
    if (i > 0) {
      EXPECT_EQ(seg.t0, cp.segments[i - 1].t1) << "gap at segment " << i;
    }
    blame_sum += seg.dur();
  }
  EXPECT_EQ(blame_sum, cp.length);
  EXPECT_EQ(cp.exec_ns + cp.queue_ns, cp.length);
  TimeNs rank_sum = 0;
  for (TimeNs r : cp.rank_blame) {
    rank_sum += r;
  }
  EXPECT_EQ(rank_sum, cp.length);
  // The terminal task really is the last finisher.
  const trace::LineageSpan* term = run.rep.find(cp.terminal_id);
  ASSERT_NE(term, nullptr);
  for (const trace::LineageSpan& s : run.rep.spans) {
    if (s.executed()) {
      EXPECT_LE(s.finish(), term->finish());
    }
  }
}

// ---- Steal-chain conservation under a kill-a-rank fault plan ----

TEST(LineageFault, StealChainConservationWhenARankDies) {
  LineageRun run =
      run_traced_uts(11, pgas::BackendKind::Sim, QueueMode::Split,
                     /*lineage=*/true, "kill:rank=2,at=150us");
  ASSERT_EQ(run.dropped, 0u);
  // Exactly-once execution survives the kill: no double ExecSpan, no
  // exec-before-spawn, every spawned task eventually executed (the
  // adopted ones on their ward).
  EXPECT_TRUE(run.rep.causal_order_ok())
      << "first violation: " << run.rep.violations.front();
  EXPECT_EQ(run.rep.spawns, run.rep.execs);
  // Conservation: the MigrateEdge stream matches the steal matrix task
  // for task. A chunk whose thief died before requeueing is replayed by
  // the victim -- its StealOk and MigrateEdge stay paired -- and
  // drain_dead adoption moves tasks through neither path.
  trace::StealMatrix sm = trace::steal_matrix(run.events, run.nranks);
  EXPECT_EQ(run.rep.migrations, sm.total_tasks());
  // A replayed chunk executes with its pre-steal hop count, so hop
  // mismatches are permitted under faults -- but never more than the
  // tasks that actually migrated.
  EXPECT_LE(run.rep.hop_mismatches, run.rep.migrations);
}

// ---- Lineage-off runs carry no lineage events ----

TEST(LineageOff, TraceCarriesNoLineageEventsAndStaysDeterministic) {
  LineageRun a = run_traced_uts(7, pgas::BackendKind::Sim, QueueMode::Split,
                                /*lineage=*/false);
  for (const trace::Event& e : a.events) {
    EXPECT_NE(e.kind, trace::Ev::SpawnEdge);
    EXPECT_NE(e.kind, trace::Ev::MigrateEdge);
    EXPECT_NE(e.kind, trace::Ev::ExecSpan);
  }
  EXPECT_EQ(a.json.find("task_flow"), std::string::npos);
  EXPECT_TRUE(a.rep.spans.empty());
  // Byte-identity of the disarmed path: the trailer is sized at runtime,
  // so a run with no session must reproduce the exact trace of a second
  // disarmed run (tests/check_virtual_outputs.sh pins the disarmed bytes
  // against recorded digests).
  LineageRun b = run_traced_uts(7, pgas::BackendKind::Sim, QueueMode::Split,
                                /*lineage=*/false);
  EXPECT_EQ(a.json, b.json);
}

TEST(LineageExport, ChromeFlowEventsPairUpWithTheReport) {
  LineageRun run = run_traced_uts(5, pgas::BackendKind::Sim);
  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = run.json.find(needle); at != std::string::npos;
         at = run.json.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  // One flow-start per spawn, one step per migration, one finish bound to
  // the enclosing exec slice per execution.
  EXPECT_EQ(count("\"ph\":\"s\""), run.rep.spawns);
  EXPECT_EQ(count("\"ph\":\"t\""), run.rep.migrations);
  EXPECT_EQ(count("\"ph\":\"f\""), run.rep.execs);
  EXPECT_EQ(count("\"bp\":\"e\""), run.rep.execs);
  EXPECT_EQ(count("\"name\":\"task_flow\""),
            run.rep.spawns + run.rep.migrations + run.rep.execs);
}

// ---- C API round-trip ----

TEST(LineageCApi, StagingRoundTrip) {
  EXPECT_EQ(scioto_lineage_enabled(), 0);
  scioto_lineage_set(1);
  EXPECT_EQ(scioto_lineage_enabled(), 1);
  scioto_lineage_set(0);
  EXPECT_EQ(scioto_lineage_enabled(), 0);
}

TEST(LineageCApi, ReportMatchesTheNativeAnalyzer) {
  scioto_lineage_report_t crep;
  EXPECT_EQ(scioto_lineage_report_get(&crep), -1)
      << "no session pair active yet";

  const int nranks = 4;
  apps::UtsParams tree = apps::uts_small();
  apps::UtsRunConfig rc;
  rc.chunk = 4;
  trace::start(nranks, /*capacity_per_rank=*/1 << 18);
  trace::lineage::start(nranks);
  testing::run_sim(nranks, [&](Runtime& rt) {
    (void)apps::uts_run_scioto(rt, tree, rc);
  });

  ASSERT_EQ(scioto_lineage_report_get(&crep), 0);
  std::vector<trace::Event> evs = trace::all_events();
  trace::LineageReport rep =
      trace::lineage_report(evs, nranks, trace::total_dropped());
  trace::CriticalPath cp = trace::critical_path(rep, evs, nranks);
  EXPECT_EQ(crep.tasks_spawned, rep.spawns);
  EXPECT_EQ(crep.tasks_executed, rep.execs);
  EXPECT_EQ(crep.migrations, rep.migrations);
  EXPECT_EQ(crep.max_hops, rep.max_hops);
  EXPECT_EQ(crep.violations, rep.violations.size());
  EXPECT_EQ(crep.ring_dropped, 0u);
  EXPECT_EQ(crep.critical_path_ns, cp.length);
  EXPECT_EQ(crep.spawn_exec_p50_ns,
            static_cast<std::int64_t>(rep.spawn_to_exec.percentile(50)));
  EXPECT_EQ(crep.spawn_exec_p99_ns,
            static_cast<std::int64_t>(rep.spawn_to_exec.percentile(99)));

  trace::lineage::stop();
  trace::stop();
  EXPECT_EQ(scioto_lineage_report_get(&crep), -1)
      << "report requires live sessions";
}

}  // namespace
}  // namespace scioto
