// Figure 4 reproduction: termination detection vs ARMCI and MPI barriers
// on 1..64 cluster nodes (paper §5.2, Figure 4).
//
// "In this comparison, we detect termination after executing a single
// no-op task and found that our algorithm can detect termination in
// roughly twice the time required for ARMCI and MPI barrier operations."
//
// Expected shape: all three series grow ~logarithmically with the process
// count; the Scioto termination wave costs a small constant factor (~2x)
// over a barrier because it is two one-sided token waves plus the
// broadcast instead of one dissemination round.
#include <cstdio>
#include <vector>

#include "base/options.hpp"
#include "base/stats.hpp"
#include "base/table.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "pgas/runtime.hpp"
#include "scioto/task_collection.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

using namespace scioto;

namespace {

struct Fig4Row {
  int procs = 0;
  double term_us = 0;
  double armci_us = 0;
  double mpi_us = 0;
  // Root-observed wave-latency distribution from the live metrics plane
  // (launch -> all votes in), one histogram per process count.
  metrics::HistSnap wave;
  std::uint64_t waves = 0;
  bool hist_valid = false;
};

Fig4Row measure(int procs, int trials, bool want_hists,
                const std::string& trace_file = "",
                const std::string& fault_spec = "") {
  Fig4Row row;
  row.procs = procs;
  // Bench-owned metrics session: run_spmd sees it active and leaves it
  // alone, so rank 0's wave histogram survives past the SPMD region.
  if (want_hists) {
    metrics::start(procs);
  }
  pgas::Config cfg;
  cfg.nranks = procs;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008_uniform();

  const bool tracing = !trace_file.empty();
  if (tracing) {
    trace::start(procs);
  }
  // --fault-plan: detection must still converge with ranks dying between
  // (or during) waves; killed ranks drop out of the remaining trials and
  // row means cover survivors only.
  const bool faulting = !fault_spec.empty();
  if (faulting) {
    fault::start(procs, fault::FaultPlan::parse(fault_spec), cfg.seed);
  }
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    // --- Scioto termination detection after a single no-op task ---
    TcConfig tcc;
    tcc.max_task_body = 8;
    TaskCollection tc(rt, tcc);
    TaskHandle noop = tc.register_callback([](TaskContext&) {});
    Accumulator term;
    for (int t = 0; t < trials; ++t) {
      if (rt.me() == 0) {
        Task task = tc.task_create(0, noop);
        tc.add_local(task);
      }
      rt.barrier();
      TimeNs t0 = rt.now();
      tc.process();
      TimeNs local = rt.now() - t0;
      term.add(to_us(rt.allreduce_max(local)));
      tc.reset();
    }
    tc.destroy();

    // --- ARMCI barrier ---
    Accumulator armci;
    for (int t = 0; t < trials; ++t) {
      rt.barrier();
      TimeNs t0 = rt.now();
      rt.barrier();
      armci.add(to_us(rt.allreduce_max(rt.now() - t0)));
    }

    // --- MPI barrier ---
    Accumulator mpi;
    for (int t = 0; t < trials; ++t) {
      rt.barrier();
      TimeNs t0 = rt.now();
      rt.barrier_mpi();
      mpi.add(to_us(rt.allreduce_max(rt.now() - t0)));
    }

    if (rt.me() == 0) {
      row.term_us = term.mean();
      row.armci_us = armci.mean();
      row.mpi_us = mpi.mean();
    }
  });
  if (want_hists) {
    metrics::Snapshot s0;
    if (metrics::scrape(0, &s0)) {
      row.wave = s0.hist(metrics::Hist::WaveNs);
      row.waves = s0.ctr(metrics::Ctr::TdWaves);
      row.hist_valid = true;
    }
    metrics::stop();
  }
  if (faulting) {
    fault::Summary s = fault::summary();
    std::printf("faults at %d procs: %lld kills, %d survivors\n", procs,
                s.kills, fault::alive_count());
    fault::stop();
  }
  if (tracing) {
    if (trace::write_chrome_trace_file(trace_file)) {
      std::printf("trace: wrote %s (%d ranks)\n", trace_file.c_str(), procs);
    }
    trace::stop();
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("bench_fig4_termination",
               "Figure 4: termination detection vs barriers");
  opts.add_int("trials", 10, "trials per point");
  opts.add_int("max-procs", 64, "largest process count");
  opts.add_string("trace", "",
                  "write a Chrome trace JSON of the max-procs run (token "
                  "waves, votes, barriers) to this file");
  opts.add_string("fault-plan", "",
                  "fault plan (spec/JSON/@file) injected into the max-procs "
                  "run; detection must still converge on the survivors");
  opts.add_string("json", "", "also write results as JSON to this file");
  opts.add_string("metrics-json", "",
                  "write per-procs wave-latency percentiles from the live "
                  "metrics histograms to this file");
  if (!opts.parse(argc, argv)) return 0;
  const int trials = static_cast<int>(opts.get_int("trials"));
  const int maxp = static_cast<int>(opts.get_int("max-procs"));
  const std::string metrics_json = opts.get_string("metrics-json");
  const bool want_hists = !metrics_json.empty();

  Table t({"Procs", "Scioto-Termination(us)", "ARMCI-Barrier(us)",
           "MPI-Barrier(us)", "Term/Barrier", "Wave/Barrier"});
  std::vector<Fig4Row> rows;
  for (int p = 1; p <= maxp; p *= 2) {
    const std::string trace_file =
        p == maxp ? opts.get_string("trace") : std::string();
    const std::string fault_spec =
        p == maxp ? opts.get_string("fault-plan") : std::string();
    Fig4Row r = measure(p, trials, want_hists, trace_file, fault_spec);
    rows.push_back(r);
    double ratio = r.mpi_us > 0 ? r.term_us / r.mpi_us : 0;
    // tc_process includes one mandatory phase-entry barrier; the second
    // ratio isolates the detection wave itself, which is what the paper's
    // "roughly twice the time of a barrier" refers to.
    double wave_ratio =
        r.mpi_us > 0 ? (r.term_us - r.armci_us) / r.mpi_us : 0;
    t.add_row({Table::fmt(std::int64_t{p}), Table::fmt(r.term_us, 2),
               Table::fmt(r.armci_us, 2), Table::fmt(r.mpi_us, 2),
               Table::fmt(ratio, 2), Table::fmt(wave_ratio, 2)});
  }
  t.print("Figure 4: termination detection vs ARMCI/MPI barrier on the "
          "cluster (log-log in the paper; expect ~log p growth, "
          "termination wave ~2x barrier)");

  const std::string json = opts.get_string("json");
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << json);
    std::fprintf(f,
                 "{\n  \"bench\": \"fig4_termination\", \"trials\": %d,\n"
                 "  \"rows\": [\n",
                 trials);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "    {\"procs\": %d, \"term_us\": %.3f, "
                   "\"armci_us\": %.3f, \"mpi_us\": %.3f}%s\n",
                   rows[i].procs, rows[i].term_us, rows[i].armci_us,
                   rows[i].mpi_us, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("json: wrote %s\n", json.c_str());
  }

  if (want_hists) {
    std::FILE* f = std::fopen(metrics_json.c_str(), "w");
    SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << metrics_json);
    std::fprintf(f,
                 "{\n  \"bench\": \"metrics_termination\", \"trials\": %d,\n"
                 "  \"rows\": [\n",
                 trials);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Fig4Row& r = rows[i];
      if (!r.hist_valid) continue;
      std::fprintf(
          f,
          "    {\"procs\": %d, \"waves\": %llu, \"wave_ns\": "
          "{\"count\": %llu, \"mean_ns\": %.1f, \"p50_ns\": %llu, "
          "\"p95_ns\": %llu, \"p99_ns\": %llu, \"max_ns\": %llu}}%s\n",
          r.procs, static_cast<unsigned long long>(r.waves),
          static_cast<unsigned long long>(r.wave.count), r.wave.mean(),
          static_cast<unsigned long long>(r.wave.percentile(50)),
          static_cast<unsigned long long>(r.wave.percentile(95)),
          static_cast<unsigned long long>(r.wave.percentile(99)),
          static_cast<unsigned long long>(r.wave.max),
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("metrics-json: wrote %s\n", metrics_json.c_str());
  }
  return 0;
}
