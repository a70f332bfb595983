// Adaptive control plane vs hand-tuned static configs on bursty UTS.
//
// The claim under test (the control subsystem's win condition): starting
// from the *default* configuration (chunk 10, fixed-width steals, stock
// release threshold), the online controller -- default rules -- finds
// mid-run what the static sweep needs a full grid search to find on the
// bursty binomial tree (steal-half + eager release while the root burst
// drains, then calmer settings as the fleet evens out). CI gates the
// 8-rank row (adaptive >= the best hand-picked static chunk) and the
// 16-rank row (adaptive > best static). The claim does not hold at every
// size: at 4 ranks static chunk 50 beats the controller by 3%
// (EXPERIMENTS "Adaptive control"). Every decision it took is available
// as a JSONL log and as knob_change trace events.
//
// Also measures the metrics fast path the controller rides on:
// own-rank counter reads via direct relaxed loads (metrics::own_ctr)
// against the general seqlock scrape -- the difference is why a per-rank
// controller can poll every scheduling iteration.
#include <chrono>
#include <cstdio>

#include "apps/uts/uts_drivers.hpp"
#include "base/options.hpp"
#include "base/table.hpp"
#include "control/control.hpp"
#include "metrics/metrics.hpp"

using namespace scioto;
using namespace scioto::apps;

namespace {

// The PR 3 ablation grid's static chunk rows: the hand-tuned field the
// adaptive controller must beat from its default starting point.
const int kStaticChunks[] = {1, 2, 5, 10, 20, 50};

UtsResult run_once(const UtsParams& tree, int procs, int chunk) {
  pgas::Config cfg;
  cfg.nranks = procs;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008();
  UtsRunConfig rc;
  rc.chunk = chunk;
  UtsResult res;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    res = uts_run_scioto(rt, tree, rc);
  });
  return res;
}

// Microbenchmark: ns per own-counter read (relaxed load fast path) vs ns
// per seqlock scrape of the full patch. Wall-clock, order-of-magnitude
// numbers -- the point is the ratio, not the absolute timing.
void fastpath_micro(double* fast_ns, double* scrape_ns) {
  metrics::start(1);
  metrics::counter_add(0, metrics::Ctr::TasksExecuted, 123);
  const int iters = 200000;
  volatile std::uint64_t sink = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    sink = sink + metrics::own_ctr(0, metrics::Ctr::TasksExecuted);
  }
  auto t1 = std::chrono::steady_clock::now();
  metrics::Snapshot snap;
  for (int i = 0; i < iters; ++i) {
    metrics::scrape(0, &snap);
    sink = sink + snap.ctr(metrics::Ctr::TasksExecuted);
  }
  auto t2 = std::chrono::steady_clock::now();
  metrics::stop();
  *fast_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
             iters;
  *scrape_ns = std::chrono::duration<double, std::nano>(t2 - t1).count() /
               iters;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("bench_control_uts",
               "adaptive controller vs static configs on bursty UTS");
  opts.add_int("procs", 8, "process count");
  opts.add_string("json", "", "also write results as JSON to this file");
  if (!opts.parse(argc, argv)) return 0;
  const int procs = static_cast<int>(opts.get_int("procs"));
  const std::string json = opts.get_string("json");

  // The T2 bursty binomial workload from the chunk ablation: a wide root
  // fan-out into heavy-tailed subcritical subtrees -- deep victims one
  // moment, dry ones the next. This is the shape online adaptation is for.
  UtsParams t2;
  t2.tree = UtsTree::Binomial;
  t2.seed = 42;
  t2.b0 = 2000;
  t2.q = 0.120;
  t2.m = 8;
  UtsCounts expected = uts_sequential(t2);
  std::printf("workload T2 binomial-bursty: %s, %llu nodes on %d procs "
              "(heterogeneous cluster)\n",
              uts_describe(t2).c_str(),
              static_cast<unsigned long long>(expected.nodes), procs);

  Table t({"Config", "Throughput(Mn/s)", "Steals", "Tasks/Steal",
           "Decisions"});
  double best_static = 0.0;
  double static_tp[sizeof(kStaticChunks) / sizeof(kStaticChunks[0])] = {};
  int si = 0;
  for (int chunk : kStaticChunks) {
    UtsResult res = run_once(t2, procs, chunk);
    SCIOTO_CHECK_MSG(res.counts == expected, "traversal mismatch");
    best_static = std::max(best_static, res.mnodes_per_sec);
    static_tp[si++] = res.mnodes_per_sec;
    char label[32];
    std::snprintf(label, sizeof(label), "static %d", chunk);
    t.add_row({label, Table::fmt(res.mnodes_per_sec, 2),
               Table::fmt(static_cast<std::int64_t>(res.steals)),
               Table::fmt(res.steals
                              ? static_cast<double>(res.tasks_stolen) /
                                    static_cast<double>(res.steals)
                              : 0.0,
                          2),
               "-"});
  }

  // Stage the controller; run_spmd arms it (and the metrics plane it
  // reads) inside the run. Everything else stays at defaults -- this is
  // the "no hand-tuning" row.
  control::Config cc = control::config();
  cc.mode = control::Mode::Local;
  control::set_config(cc);
  UtsResult res = run_once(t2, procs, /*chunk=*/10);
  cc.mode = control::Mode::Off;
  control::set_config(cc);
  SCIOTO_CHECK_MSG(res.counts == expected, "traversal mismatch");
  const double adaptive_tp = res.mnodes_per_sec;
  const std::uint64_t adaptive_decisions = control::stats().decisions;
  t.add_row({"adaptive local", Table::fmt(res.mnodes_per_sec, 2),
             Table::fmt(static_cast<std::int64_t>(res.steals)),
             Table::fmt(res.steals ? static_cast<double>(res.tasks_stolen) /
                                         static_cast<double>(res.steals)
                                   : 0.0,
                        2),
             Table::fmt(static_cast<std::int64_t>(adaptive_decisions))});
  t.print("Adaptive controller (default config) vs static chunk grid "
          "(UTS T2, Scioto split queues)");
  std::printf("best static %.2f Mn/s; adaptive local %.2f (%.3fx)\n",
              best_static, adaptive_tp, adaptive_tp / best_static);

  double fast_ns = 0, scrape_ns = 0;
  fastpath_micro(&fast_ns, &scrape_ns);
  std::printf("metrics fast path: own_ctr %.1f ns/read vs scrape %.1f "
              "ns/snapshot (%.0fx)\n",
              fast_ns, scrape_ns, scrape_ns / fast_ns);

  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << json);
    std::fprintf(f, "{\n  \"workload\": \"T2-binomial-bursty\",\n");
    std::fprintf(f, "  \"procs\": %d,\n  \"nodes\": %llu,\n", procs,
                 static_cast<unsigned long long>(expected.nodes));
    std::fprintf(f, "  \"static\": {");
    for (std::size_t i = 0; i < sizeof(kStaticChunks) / sizeof(int); ++i) {
      std::fprintf(f, "%s\"%d\": %.4f", i ? ", " : "", kStaticChunks[i],
                   static_tp[i]);
    }
    std::fprintf(f, "},\n  \"best_static_mnps\": %.4f,\n", best_static);
    std::fprintf(f, "  \"adaptive_local_mnps\": %.4f,\n", adaptive_tp);
    std::fprintf(f, "  \"adaptive_local_decisions\": %llu,\n",
                 static_cast<unsigned long long>(adaptive_decisions));
    std::fprintf(f, "  \"fastpath_own_ctr_ns\": %.2f,\n", fast_ns);
    std::fprintf(f, "  \"fastpath_scrape_ns\": %.2f\n}\n", scrape_ns);
    std::fclose(f);
    std::printf("json: wrote %s\n", json.c_str());
  }
  return 0;
}
