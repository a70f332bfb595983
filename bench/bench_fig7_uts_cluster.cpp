// Figure 7 reproduction: UTS throughput on the heterogeneous cluster for
// (a) Scioto with split queues, (b) the two-sided MPI work-stealing
// baseline, and (c) Scioto with the original fully locked queues
// ("No Split"), on 2..64 processes (paper §6.3, Figure 7).
//
// Cluster model: half Opteron nodes at 0.3158 us per UTS node, half Xeon
// at 0.4753 us (a 50% spread), so "doubling the number of nodes also
// doubles the resources even though the processors are not of uniform
// speed".
//
// Expected shape: split-queue Scioto and MPI-WS both scale near-linearly
// with Scioto ahead (no explicit polling); the no-split variant collapses
// to a flat line because every local queue operation contends for the
// same lock remote thieves use.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "base/options.hpp"
#include "base/table.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

using namespace scioto;
using namespace scioto::apps;

namespace {

UtsResult run_one(int procs, const UtsParams& tree, const UtsRunConfig& rc,
                  bool mpi_ws, const std::string& trace_file = "",
                  const std::string& fault_spec = "", bool live = false,
                  bool flow = false, const std::string& flow_json = "") {
  pgas::Config cfg;
  cfg.nranks = procs;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008();  // heterogeneous: half Opteron half Xeon
  // --flow needs the trace rings even when no Chrome file was asked for:
  // the lineage analytics below rebuild the causal timeline from them.
  const bool tracing = !trace_file.empty() || flow;
  if (tracing) {
    trace::start(procs);
  }
  if (flow) {
    trace::lineage::start(procs);
  }
  // --fault-plan routes the split-queue series through the fault-tolerant
  // driver: ranks die mid-traversal, survivors adopt their work, and the
  // traversal-count check below still demands an exact match.
  const bool faulting = !fault_spec.empty() && !mpi_ws;
  if (faulting) {
    fault::start(procs, fault::FaultPlan::parse(fault_spec), cfg.seed);
  }
  // --live: bench-owned metrics session + TTY dashboard over the fleet
  // (run_spmd leaves an already-active session to its owner).
  const bool dashboard = live && !mpi_ws;
  if (dashboard) {
    metrics::start(procs);
    metrics::MonitorOptions mopts;
    mopts.live = true;
    metrics::monitor_start(procs, mopts);
    if (faulting) {
      metrics::monitor_set_liveness([](Rank r) {
        return fault::alive(r) ? metrics::RankState::Alive
                               : metrics::RankState::Dead;
      });
    }
  }
  UtsResult res;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    res = mpi_ws     ? uts_run_mpi_ws(rt, tree, rc)
          : faulting ? uts_run_scioto_ft(rt, tree, rc)
                     : uts_run_scioto(rt, tree, rc);
  });
  if (dashboard) {
    const std::size_t samples = metrics::monitor_samples().size();
    metrics::monitor_stop();
    metrics::stop();
    std::printf("live monitor: %zu samples at %d procs\n", samples, procs);
  }
  if (faulting) {
    fault::Summary s = fault::summary();
    std::printf("faults at %d procs: %lld kills, %d survivors, "
                "%llu tasks recovered\n",
                procs, s.kills, res.survivors,
                static_cast<unsigned long long>(res.stats.tasks_recovered));
    fault::stop();
  }
  if (tracing) {
    if (!trace_file.empty() && trace::write_chrome_trace_file(trace_file)) {
      std::printf("trace: wrote %s (%d ranks)\n", trace_file.c_str(), procs);
    }
    if (flow) {
      std::vector<trace::Event> evs = trace::all_events();
      trace::LineageReport rep =
          trace::lineage_report(evs, procs, trace::total_dropped());
      trace::CriticalPath cp = trace::critical_path(rep, evs, procs);
      trace::critical_path_table(cp).print(
          "weighted critical path at max procs (longest spawn -> steal -> "
          "exec chain)");
      std::vector<int> order(cp.rank_blame.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<int>(i);
      }
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (cp.rank_blame[a] != cp.rank_blame[b]) {
          return cp.rank_blame[a] > cp.rank_blame[b];
        }
        return a < b;
      });
      std::printf("critical-path blame:");
      for (std::size_t i = 0; i < order.size() && i < 3; ++i) {
        std::printf("%s rank %d (%.1f us)", i ? "," : "", order[i],
                    static_cast<double>(cp.rank_blame[order[i]]) / 1e3);
      }
      std::printf(" -- %.1f us total over %llu tasks, "
                  "spawn-to-exec p99 %llu ns, %zu hb violations\n",
                  static_cast<double>(cp.length) / 1e3,
                  static_cast<unsigned long long>(cp.tasks),
                  static_cast<unsigned long long>(
                      rep.spawn_to_exec.percentile(99)),
                  rep.violations.size());
      if (!flow_json.empty()) {
        std::FILE* f = std::fopen(flow_json.c_str(), "w");
        SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << flow_json);
        std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"procs\": %d,\n",
                     uts_describe(tree).c_str(), procs);
        std::fprintf(f, "  \"tasks_spawned\": %llu,\n"
                     "  \"tasks_executed\": %llu,\n  \"migrations\": %llu,\n",
                     static_cast<unsigned long long>(rep.spawns),
                     static_cast<unsigned long long>(rep.execs),
                     static_cast<unsigned long long>(rep.migrations));
        std::fprintf(f, "  \"hb_violations\": %zu,\n  \"max_hops\": %llu,\n",
                     rep.violations.size(),
                     static_cast<unsigned long long>(rep.max_hops));
        std::fprintf(f, "  \"spawn_exec_p50_ns\": %llu,\n"
                     "  \"spawn_exec_p99_ns\": %llu,\n"
                     "  \"spawn_exec_max_ns\": %llu,\n",
                     static_cast<unsigned long long>(
                         rep.spawn_to_exec.percentile(50)),
                     static_cast<unsigned long long>(
                         rep.spawn_to_exec.percentile(99)),
                     static_cast<unsigned long long>(rep.spawn_to_exec.max));
        std::fprintf(f, "  \"critical_path_ns\": %lld,\n"
                     "  \"critical_path_exec_ns\": %lld,\n"
                     "  \"critical_path_queue_ns\": %lld,\n"
                     "  \"critical_path_tasks\": %llu\n}\n",
                     static_cast<long long>(cp.length),
                     static_cast<long long>(cp.exec_ns),
                     static_cast<long long>(cp.queue_ns),
                     static_cast<unsigned long long>(cp.tasks));
        std::fclose(f);
        std::printf("flow json: wrote %s\n", flow_json.c_str());
      }
      trace::lineage::stop();
    }
    trace::stop();
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("bench_fig7_uts_cluster",
               "Figure 7: UTS on the heterogeneous cluster");
  opts.add_int("scale", 11, "geometric tree depth (gen_mx); 11 ~= 408k nodes");
  opts.add_string("tree", "geo",
                  "tree family: geo (paper's Figure 7 workload) | bin (the "
                  "T2 bursty binomial from the control-plane benches; "
                  "--scale sets the root burst b0)");
  opts.add_int("max-procs", 64, "largest process count");
  opts.add_int("chunk", 10, "steal chunk size");
  opts.add_string("trace", "",
                  "write a Chrome trace JSON of the split-queue run at "
                  "max-procs to this file");
  opts.add_string("fault-plan", "",
                  "fault plan (spec/JSON/@file) injected into the "
                  "split-queue run at max-procs; the traversal must still "
                  "match the sequential node count exactly");
  opts.add_flag("live", false,
                "render the live fleet dashboard (queue depths, imbalance, "
                "steal rates) during the split-queue run at max-procs");
  opts.add_flag("flow", false,
                "stamp task lineage on the split-queue run at max-procs: "
                "flow arrows in --trace output, critical path + top-3 "
                "blame ranks printed after the run");
  opts.add_string("flow-json", "",
                  "write the --flow lineage stats (spawn-to-exec p99, "
                  "critical path) as JSON to this file");
  if (!opts.parse(argc, argv)) return 0;
  const bool live = opts.get_flag("live");
  const bool flow = opts.get_flag("flow");

  UtsParams tree = uts_bench();
  tree.gen_mx = static_cast<int>(opts.get_int("scale"));
  if (opts.get_string("tree") == "bin") {
    // The T2 bursty binomial from bench_control_uts: a wide root burst
    // (b0 children at once) into near-critical binomial decay -- the
    // workload whose steal chains make the lineage critical path
    // interesting. --scale overrides the burst width.
    tree = UtsParams{};
    tree.tree = UtsTree::Binomial;
    tree.seed = 42;
    tree.b0 = 2000;
    tree.q = 0.120;
    tree.m = 8;
    if (opts.get_int("scale") != 11) {
      tree.b0 = static_cast<int>(opts.get_int("scale"));
    }
  }
  UtsCounts expected = uts_sequential(tree);
  std::printf("workload: %s, %llu nodes\n", uts_describe(tree).c_str(),
              static_cast<unsigned long long>(expected.nodes));

  UtsRunConfig rc;
  rc.node_cost = ns(316);  // 0.3158 us/node on the Opteron (§6.3)
  rc.chunk = static_cast<int>(opts.get_int("chunk"));

  Table t({"Procs", "Split-Queues(Mn/s)", "MPI-WS(Mn/s)", "No-Split(Mn/s)"});
  const int maxp = static_cast<int>(opts.get_int("max-procs"));
  for (int p = 2; p <= maxp; p *= 2) {
    UtsRunConfig split_rc = rc;
    const std::string trace_file =
        p == maxp ? opts.get_string("trace") : std::string();
    const std::string fault_spec =
        p == maxp ? opts.get_string("fault-plan") : std::string();
    UtsResult split = run_one(p, tree, split_rc, /*mpi_ws=*/false, trace_file,
                              fault_spec, live && p == maxp, flow && p == maxp,
                              p == maxp ? opts.get_string("flow-json")
                                        : std::string());
    SCIOTO_CHECK_MSG(split.counts == expected, "split traversal mismatch");

    UtsResult mpi = run_one(p, tree, rc, /*mpi_ws=*/true);
    SCIOTO_CHECK_MSG(mpi.counts == expected, "mpi-ws traversal mismatch");

    UtsRunConfig ns_rc = rc;
    ns_rc.queue_mode = QueueMode::NoSplit;
    UtsResult nosplit = run_one(p, tree, ns_rc, /*mpi_ws=*/false);
    SCIOTO_CHECK_MSG(nosplit.counts == expected, "no-split traversal mismatch");

    t.add_row({Table::fmt(std::int64_t{p}),
               Table::fmt(split.mnodes_per_sec, 2),
               Table::fmt(mpi.mnodes_per_sec, 2),
               Table::fmt(nosplit.mnodes_per_sec, 2)});
  }
  t.print("Figure 7: UTS performance on the cluster -- Scioto split "
          "queues vs MPI work stealing vs no-split (Mnodes/s; paper peaks "
          "~75/65/8 at 64 procs)");
  return 0;
}
