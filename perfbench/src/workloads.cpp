#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "apps/cholesky/cholesky.hpp"
#include "apps/uts/uts.hpp"
#include "apps/uts/uts_drivers.hpp"
#include "base/rng.hpp"
#include "layers.hpp"
#include "pgas/runtime.hpp"
#include "scioto/task_collection.hpp"
#include "sim/machine.hpp"
#include "spans.hpp"
#include "spawn_tree.hpp"

namespace perfbench {

namespace {

using namespace scioto;

// ---- Workload shapes ----

/// Nodes of `p`'s tree at depth <= `depth`.
std::uint64_t top_levels(const apps::UtsParams& p, int depth) {
  std::vector<apps::UtsNode> stack{apps::uts_root(p)};
  std::uint64_t n = 0;
  while (!stack.empty()) {
    const apps::UtsNode x = stack.back();
    stack.pop_back();
    ++n;
    if (x.depth >= depth) continue;
    const int nc = apps::uts_num_children(x, p);
    for (int i = 0; i < nc; ++i) stack.push_back(apps::uts_child(x, i));
  }
  return n;
}

/// Geometric UTS in the uts_bench() shape with depth `gen_mx`, rooted at a
/// seed-derived root seed. Raw root seeds give trees from 1 node to
/// millions, so candidates drawn from `seed` are tried in order and the
/// first whose top six levels hold within 10% of the canonical root seed's
/// count is taken: those levels predict the whole tree's size within a
/// few percent, so every seed yields a different tree of about the
/// canonical size.
apps::UtsParams sized_tree(int gen_mx, std::uint64_t seed) {
  constexpr int kProbeDepth = 6;
  apps::UtsParams p = apps::uts_bench();
  p.gen_mx = gen_mx;
  const double target = static_cast<double>(top_levels(p, kProbeDepth));
  Xoshiro256 rng(seed);
  for (int k = 0; k < 10000; ++k) {
    p.seed = static_cast<int>(rng.next() % 0x7fffffff);
    const double n = static_cast<double>(top_levels(p, kProbeDepth));
    if (n > 0.9 * target && n < 1.1 * target) return p;
  }
  throw std::runtime_error("no root seed of the canonical tree size");
}

/// uts-threads: ~2.9M nodes. SHA-1 dominates, steals are rare.
constexpr int kUtsThreadsDepth = 13;
/// uts-sim: ~1.1M nodes; the simulator also spends host time on 128
/// fibers and their termination waves.
constexpr int kUtsSimDepth = 12;
constexpr int kSimRanks = 128;
constexpr int kCholTiles = 64;
constexpr int kCholTile = 16;
/// Relative reconstruction residual a factorization must beat; the
/// algorithm reaches ~3e-16 on this matrix.
constexpr double kCholTolerance = 1e-12;

int threads_ranks() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc, 1u, 4u));
}

/// Binds the calling rank thread to one CPU of the process's allowed set,
/// one rank per CPU, as HPC launchers bind ranks to cores. Unbound ranks
/// migrate between CPUs mid-run; binding narrowed the run-to-run spread
/// on a shared 4-vCPU host.
void pin_rank(int rank) {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(rank) % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // best effort
}

std::uint64_t chol_task_count(int nt) {
  std::uint64_t n = 0;
  for (int k = 0; k < nt; ++k) {
    const std::uint64_t rest = static_cast<std::uint64_t>(nt - k - 1);
    n += 1 + rest + rest * (rest + 1) / 2;  // potrf, trsms, updates
  }
  return n;
}

// ---- One repetition ----

struct Rep {
  double setup_s = 0;
  /// The timed region, wall seconds (host seconds for uts-sim).
  double solve_s = 0;
  /// Work items completed: tree nodes, tasks, or tile-kernel tasks.
  double items = 0;
  bool ok = false;
  TcStats stats{};
  // Traced repetitions only.
  SpanTotals span[kSpanNames]{};
  double term_tail_us = 0;
  // Workload-specific.
  double virt_mnodes_s = 0;
  double chol_call_s = 0;
  double residual = 0;
  dag::DagStats dag{};
  std::string virt_fingerprint;  // uts-sim: bytes that must repeat
};

pgas::Config threads_config(std::uint64_t seed) {
  pgas::Config cfg;
  cfg.nranks = threads_ranks();
  cfg.backend = pgas::BackendKind::Threads;
  cfg.seed = seed;
  return cfg;
}

/// Collects span totals and the termination tail after a traced rep.
void harvest_spans(SpanRecorder* rec, int nranks, Rep& rep) {
  if (!rec) return;
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    rep.span[i] = rec->totals(static_cast<SpanName>(i));
  }
  // Tail: the last task to finish anywhere, to the last process() return.
  std::int64_t last_task = 0, last_proc = 0;
  for (int r = 0; r < nranks; ++r) {
    last_task = std::max(last_task, rec->last_end(r, SpanName::Task));
    last_proc = std::max(last_proc, rec->last_end(r, SpanName::Process));
  }
  if (last_task > 0) {
    rep.term_tail_us = static_cast<double>(last_proc - last_task) / 1e3;
  }
  rec->reset_totals();
}

/// uts-threads, untraced: the library's own UTS driver.
Rep uts_threads_rep(const apps::UtsParams& tree, std::uint64_t seed,
                    std::uint64_t ref_nodes, bool setup_only) {
  Rep rep;
  std::int64_t t_start = 0, t_end = 0;
  apps::UtsResult out;
  const std::int64_t t_call = wall_ns();
  pgas::run_spmd(threads_config(seed), [&](pgas::Runtime& rt) {
    pin_rank(rt.me());
    rt.barrier();
    if (rt.me() == 0) t_start = wall_ns();
    if (setup_only) return;
    apps::UtsResult r = apps::uts_run_scioto(rt, tree, apps::UtsRunConfig{});
    rt.barrier();
    if (rt.me() == 0) {
      t_end = wall_ns();
      out = r;
    }
  });
  rep.setup_s = static_cast<double>(t_start - t_call) * 1e-9;
  if (setup_only) return rep;
  rep.solve_s = static_cast<double>(t_end - t_start) * 1e-9;
  rep.items = static_cast<double>(out.counts.nodes);
  rep.ok = out.counts.nodes == ref_nodes;
  rep.stats = out.stats;
  return rep;
}

/// uts-threads, traced: a benchmark-side mirror of the library's UTS task
/// body (same public uts_* and TaskCollection calls, same first-child
/// chain) with spans around the hashing and the task adds.
Rep uts_mirror_rep(const apps::UtsParams& tree, std::uint64_t seed,
                   std::uint64_t ref_nodes, SpanRecorder* rec) {
  struct alignas(64) Local {
    std::uint64_t nodes = 0;
    std::vector<apps::UtsNode> kids;
  };
  const pgas::Config cfg = threads_config(seed);
  std::vector<Local> local(static_cast<std::size_t>(cfg.nranks));
  Rep rep;
  std::int64_t t_start = 0, t_end = 0;
  std::uint64_t nodes = 0;
  TcStats stats;
  const std::int64_t t_call = wall_ns();
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    const int me = rt.me();
    pin_rank(me);
    TaskHandle h = kInvalidHandle;
    std::unique_ptr<TaskCollection> tc;
    {
      SpanScope s(rec, me, SpanName::Setup);
      TcConfig tcc;
      tcc.max_task_body = sizeof(apps::UtsNode);
      tcc.chunk_size = apps::UtsRunConfig{}.chunk;
      tcc.max_tasks_per_rank = apps::UtsRunConfig{}.max_tasks;
      tc = std::make_unique<TaskCollection>(rt, tcc);
      h = tc->register_callback([&](TaskContext& ctx) {
        const int r = ctx.tc.runtime().me();
        Local& l = local[static_cast<std::size_t>(r)];
        SpanScope task(rec, r, SpanName::Task);
        apps::UtsNode node = ctx.body_as<apps::UtsNode>();
        for (;;) {
          ++l.nodes;
          int nc = 0;
          {
            SpanScope hs(rec, r, SpanName::Hash);
            nc = apps::uts_num_children(node, tree);
            l.kids.clear();
            for (int i = 0; i < nc; ++i) {
              l.kids.push_back(apps::uts_child(node, i));
            }
          }
          if (nc == 0) return;
          {
            SpanScope as(rec, r, SpanName::Add);
            for (int i = 1; i < nc; ++i) {
              Task t = ctx.tc.task_create(sizeof(apps::UtsNode),
                                          ctx.header.callback);
              t.body_as<apps::UtsNode>() = l.kids[static_cast<std::size_t>(i)];
              ctx.tc.add_local(t);
            }
          }
          node = l.kids[0];
        }
      });
      if (me == 0) {
        Task t = tc->task_create(sizeof(apps::UtsNode), h);
        t.body_as<apps::UtsNode>() = apps::uts_root(tree);
        tc->add_local(t);
      }
    }
    rt.barrier();
    if (me == 0) t_start = wall_ns();
    {
      SpanScope p(rec, me, SpanName::Process);
      tc->process();
    }
    rt.barrier();
    if (me == 0) t_end = wall_ns();
    const std::uint64_t total =
        rt.allreduce_sum(local[static_cast<std::size_t>(me)].nodes);
    TcStats g = tc->stats_global();
    if (me == 0) {
      nodes = total;
      stats = g;
    }
    tc->destroy();
  });
  rep.setup_s = static_cast<double>(t_start - t_call) * 1e-9;
  rep.solve_s = static_cast<double>(t_end - t_start) * 1e-9;
  rep.items = static_cast<double>(nodes);
  rep.ok = nodes == ref_nodes;
  rep.stats = stats;
  harvest_spans(rec, cfg.nranks, rep);
  return rep;
}

/// spawn-threads: the binomial spawn tree on the TaskCollection API, one
/// task per node.
Rep spawn_rep(const SpawnParams& p, std::uint64_t seed, std::uint64_t ref,
              SpanRecorder* rec, bool setup_only) {
  struct alignas(64) Local {
    std::uint64_t tasks = 0;
    std::vector<SpawnNode> kids;
  };
  const pgas::Config cfg = threads_config(seed);
  std::vector<Local> local(static_cast<std::size_t>(cfg.nranks));
  Rep rep;
  std::int64_t t_start = 0, t_end = 0;
  std::uint64_t tasks = 0;
  TcStats stats;
  const std::int64_t t_call = wall_ns();
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    const int me = rt.me();
    pin_rank(me);
    std::unique_ptr<TaskCollection> tc;
    {
      SpanScope s(rec, me, SpanName::Setup);
      TcConfig tcc;
      tcc.max_task_body = sizeof(SpawnNode);
      // Room for the root's whole burst plus the subtrees under it.
      tcc.max_tasks_per_rank = 1 << 17;
      tc = std::make_unique<TaskCollection>(rt, tcc);
      TaskHandle h = tc->register_callback([&](TaskContext& ctx) {
        const int r = ctx.tc.runtime().me();
        Local& l = local[static_cast<std::size_t>(r)];
        SpanScope task(rec, r, SpanName::Task);
        const SpawnNode node = ctx.body_as<SpawnNode>();
        ++l.tasks;
        {
          SpanScope hs(rec, r, SpanName::Hash);
          const int nc = spawn_num_children(node, p);
          l.kids.clear();
          for (int i = 0; i < nc; ++i) l.kids.push_back(spawn_child(node, i));
        }
        if (l.kids.empty()) return;
        SpanScope as(rec, r, SpanName::Add);
        for (const SpawnNode& k : l.kids) {
          Task t = ctx.tc.task_create(sizeof(SpawnNode), ctx.header.callback);
          t.body_as<SpawnNode>() = k;
          ctx.tc.add_local(t);
        }
      });
      if (me == 0) {
        Task t = tc->task_create(sizeof(SpawnNode), h);
        t.body_as<SpawnNode>() = spawn_root(p);
        tc->add_local(t);
      }
    }
    rt.barrier();
    if (me == 0) t_start = wall_ns();
    if (setup_only) {
      tc->destroy();
      return;
    }
    {
      SpanScope ps(rec, me, SpanName::Process);
      tc->process();
    }
    rt.barrier();
    if (me == 0) t_end = wall_ns();
    const std::uint64_t total =
        rt.allreduce_sum(local[static_cast<std::size_t>(me)].tasks);
    TcStats g = tc->stats_global();
    if (me == 0) {
      tasks = total;
      stats = g;
    }
    tc->destroy();
  });
  rep.setup_s = static_cast<double>(t_start - t_call) * 1e-9;
  if (setup_only) return rep;
  rep.solve_s = static_cast<double>(t_end - t_start) * 1e-9;
  rep.items = static_cast<double>(tasks);
  rep.ok = tasks == ref && stats.tasks_executed == ref;
  rep.stats = stats;
  harvest_spans(rec, cfg.nranks, rep);
  return rep;
}

/// cholesky-threads: cholesky_dag end to end. The timed figure is the
/// factorization's own wall clock (CholeskyResult::elapsed_ms: the DAG
/// execute, max over ranks); the whole call -- matrix fill, graph build,
/// execute and the serial residual check on rank 0 -- is kept beside it.
Rep cholesky_rep(std::uint64_t seed, std::uint64_t ref_tasks,
                 SpanRecorder* rec, bool setup_only) {
  const pgas::Config cfg = threads_config(seed);
  Rep rep;
  std::int64_t t_start = 0, t_end = 0;
  apps::CholeskyResult out;
  const std::int64_t t_call = wall_ns();
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    const int me = rt.me();
    pin_rank(me);
    {
      SpanScope s(rec, me, SpanName::Setup);
      rt.barrier();
    }
    if (me == 0) t_start = wall_ns();
    if (setup_only) return;
    apps::CholeskyConfig cc;
    cc.tiles = kCholTiles;
    cc.tile = kCholTile;
    apps::CholeskyResult r;
    {
      SpanScope ps(rec, me, SpanName::Process);
      r = apps::cholesky_dag(rt, cc);
    }
    rt.barrier();
    if (me == 0) {
      t_end = wall_ns();
      out = r;
    }
  });
  rep.setup_s = static_cast<double>(t_start - t_call) * 1e-9;
  if (setup_only) return rep;
  rep.solve_s = out.elapsed_ms * 1e-3;
  rep.chol_call_s = static_cast<double>(t_end - t_start) * 1e-9;
  rep.items = static_cast<double>(out.tasks_run);
  rep.residual = out.residual;
  rep.dag = out.dag;
  rep.ok = out.residual < kCholTolerance && out.tasks_run == ref_tasks;
  harvest_spans(rec, cfg.nranks, rep);
  return rep;
}

/// uts-sim: uts_run_scioto on 128 virtual ranks of the cluster2008 model.
/// Host time runs from the first fiber past the start barrier to the last
/// fiber's return; the virtual result must repeat byte for byte. Fibers
/// interleave on one host thread, so a per-rank host-time span would
/// cover the other ranks' work too: only rank 0 records spans, and its
/// `process` span is the host time of the whole simulation.
Rep uts_sim_rep(const apps::UtsParams& tree, std::uint64_t seed,
                std::uint64_t ref_nodes, SpanRecorder* rec, bool setup_only) {
  pgas::Config cfg;
  cfg.nranks = kSimRanks;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008();
  cfg.seed = seed;
  Rep rep;
  std::int64_t t_start = 0, t_end = 0;
  apps::UtsResult out;
  const std::int64_t t_call = wall_ns();
  // All fibers share the one host thread, so plain variables are safe.
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    const int me = rt.me();
    SpanRecorder* r0 = me == 0 ? rec : nullptr;
    {
      SpanScope s(r0, 0, SpanName::Setup);
      rt.barrier();
    }
    if (t_start == 0) t_start = wall_ns();
    if (setup_only) return;
    apps::UtsResult r;
    {
      SpanScope ps(r0, 0, SpanName::Process);
      r = apps::uts_run_scioto(rt, tree, apps::UtsRunConfig{});
    }
    t_end = wall_ns();
    if (me == 0) out = r;
  });
  rep.setup_s = static_cast<double>(t_start - t_call) * 1e-9;
  if (setup_only) return rep;
  rep.solve_s = static_cast<double>(t_end - t_start) * 1e-9;
  rep.items = static_cast<double>(out.counts.nodes);
  rep.ok = out.counts.nodes == ref_nodes;
  rep.stats = out.stats;
  rep.virt_mnodes_s = out.mnodes_per_sec;
  rep.virt_fingerprint.assign(reinterpret_cast<const char*>(&out.elapsed),
                              sizeof(out.elapsed));
  rep.virt_fingerprint.append(reinterpret_cast<const char*>(&out.counts),
                              sizeof(out.counts));
  rep.virt_fingerprint.append(reinterpret_cast<const char*>(&out.stats),
                              sizeof(out.stats));
  harvest_spans(rec, 1, rep);
  return rep;
}


// ---- Workload table ----

/// What one call of a repetition function does.
enum class Mode {
  EndToEnd,   // a repetition of an end-to-end run
  Traced,     // a repetition of a traced run (spans iff a recorder is given)
  SetupOnly,  // set up, record setup_s, tear down
};
using RepFn = std::function<Rep(Mode mode, SpanRecorder* rec)>;

struct Workload {
  const char* name;
  /// Ranks the span recorder is sized for (0: the threads rank count).
  int nranks;
  /// Computes the reference output once per invocation, outside any timed
  /// region, and returns the repetition function.
  RepFn (*prepare)(const Options&);
};

std::uint64_t expected(const Options& opt, std::uint64_t ref) {
  return opt.wrong_reference ? ref + 1 : ref;
}

std::uint64_t uts_reference(const apps::UtsParams& tree) {
  const std::int64_t t0 = wall_ns();
  const std::uint64_t ref = apps::uts_sequential(tree).nodes;
  std::printf("# reference: uts_sequential %s = %llu nodes in %.3f s\n",
              apps::uts_describe(tree).c_str(),
              static_cast<unsigned long long>(ref),
              static_cast<double>(wall_ns() - t0) * 1e-9);
  return ref;
}

RepFn prepare_uts_threads(const Options& opt) {
  const apps::UtsParams tree = sized_tree(kUtsThreadsDepth, opt.seed);
  const std::uint64_t ref = expected(opt, uts_reference(tree));
  const std::uint64_t seed = opt.seed;
  return [tree, ref, seed](Mode mode, SpanRecorder* rec) {
    // End-to-end runs time the library's driver; traced runs compare the
    // span-carrying mirror with and without its spans.
    return mode == Mode::Traced
               ? uts_mirror_rep(tree, seed, ref, rec)
               : uts_threads_rep(tree, seed, ref, mode == Mode::SetupOnly);
  };
}

RepFn prepare_spawn_threads(const Options& opt) {
  SpawnParams p;
  p.seed = opt.seed;
  const std::int64_t t0 = wall_ns();
  const std::uint64_t count = spawn_count(p);
  std::printf("# reference: sequential spawn-tree walk = %llu tasks in "
              "%.3f s\n",
              static_cast<unsigned long long>(count),
              static_cast<double>(wall_ns() - t0) * 1e-9);
  const std::uint64_t ref = expected(opt, count);
  const std::uint64_t seed = opt.seed;
  return [p, ref, seed](Mode mode, SpanRecorder* rec) {
    return spawn_rep(p, seed, ref, rec, mode == Mode::SetupOnly);
  };
}

RepFn prepare_cholesky_threads(const Options& opt) {
  const std::uint64_t ref = expected(opt, chol_task_count(kCholTiles));
  std::printf("# reference: %dx%d tiles of %d, %llu tile tasks, residual "
              "< %g\n",
              kCholTiles, kCholTiles, kCholTile,
              static_cast<unsigned long long>(chol_task_count(kCholTiles)),
              kCholTolerance);
  const std::uint64_t seed = opt.seed;
  return [ref, seed](Mode mode, SpanRecorder* rec) {
    return cholesky_rep(seed, ref, rec, mode == Mode::SetupOnly);
  };
}

RepFn prepare_uts_sim(const Options& opt) {
  const apps::UtsParams tree = sized_tree(kUtsSimDepth, opt.seed);
  const std::uint64_t ref = expected(opt, uts_reference(tree));
  const std::uint64_t seed = opt.seed;
  // A repetition whose virtual result differs from the invocation's first
  // one is a failed operation.
  auto first = std::make_shared<std::string>();
  return [tree, ref, seed, first](Mode mode, SpanRecorder* rec) {
    Rep r = uts_sim_rep(tree, seed, ref, rec, mode == Mode::SetupOnly);
    if (mode == Mode::SetupOnly) return r;
    if (first->empty()) *first = r.virt_fingerprint;
    if (r.virt_fingerprint != *first) {
      std::printf("# FAIL: virtual result differs from the first repetition\n");
      r.ok = false;
    }
    return r;
  };
}

const Workload kWorkloads[] = {
    {"uts-threads", 0, &prepare_uts_threads},
    {"spawn-threads", 0, &prepare_spawn_threads},
    {"cholesky-threads", 0, &prepare_cholesky_threads},
    {"uts-sim", 1, &prepare_uts_sim},
};

// ---- Run loops ----

double median_of(const std::vector<Rep>& reps,
                 const std::function<double(const Rep&)>& f) {
  std::vector<double> xs;
  for (const Rep& r : reps) xs.push_back(f(r));
  return summarize(std::move(xs)).median;
}

void print_summary(const char* name, const char* unit,
                   const std::vector<Rep>& reps,
                   const std::function<double(const Rep&)>& f) {
  std::vector<double> xs;
  for (const Rep& r : reps) xs.push_back(f(r));
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  const Summary s = summarize(xs);
  std::printf("# %-22s median %-12.6g q1 %-12.6g q3 %-12.6g min %-12.6g "
              "max %-12.6g n %zu  [%s]\n",
              name, s.median, s.q1, s.q3, xs.empty() ? 0.0 : *lo,
              xs.empty() ? 0.0 : *hi, s.n, unit);
  std::printf("#   samples:");
  for (double x : xs) std::printf(" %.6g", x);
  std::printf("\n");
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

/// Repeats `fn` until `seconds` have passed (at least `min_reps` times,
/// and never starting a repetition the budget cannot fit), after one
/// untimed warm-up repetition. Every repetition, warm-up included, is a
/// checked operation.
std::vector<Rep> repeat(Result& res, double seconds, int min_reps,
                        const std::function<Rep(int)>& fn) {
  res.check(fn(-1).ok);
  std::vector<Rep> reps;
  const double t0 = wall_s();
  for (int i = 0;; ++i) {
    const double used = wall_s() - t0;
    if (i >= min_reps && used + used / i > seconds) break;
    reps.push_back(fn(i));
    res.check(reps.back().ok);
  }
  return reps;
}

constexpr int kSetupProbes = 200;

double throughput(const Rep& r) { return r.items / r.solve_s * 1e-6; }

void print_workload_figures(const std::string& name,
                            const std::vector<Rep>& reps) {
  if (name == "uts-threads") {
    print_summary("uts_mnodes_s", "M/s", reps, throughput);
  } else if (name == "spawn-threads") {
    print_summary("spawn_mtasks_s", "M/s", reps, throughput);
  } else if (name == "cholesky-threads") {
    print_summary("chol_s", "s", reps, [](const Rep& r) { return r.solve_s; });
    print_summary("chol_call_s", "s", reps,
                  [](const Rep& r) { return r.chol_call_s; });
    print_summary("chol_residual", "1", reps,
                  [](const Rep& r) { return r.residual; });
  } else if (name == "uts-sim") {
    print_summary("sim_host_s", "s", reps,
                  [](const Rep& r) { return r.solve_s; });
    print_summary("virt_mnodes_s", "M/s", reps,
                  [](const Rep& r) { return r.virt_mnodes_s; });
  }
  print_summary("setup_s", "s", reps, [](const Rep& r) { return r.setup_s; });
}

Result end_to_end(const Workload& w, const Options& opt, const RepFn& rep) {
  Result res;
  std::vector<Rep> reps = repeat(res, opt.seconds, 3, [&](int) {
    return rep(Mode::EndToEnd, nullptr);
  });
  print_workload_figures(w.name, reps);
  // Set-up is short and noisy, so its figure is the median of many
  // set-up-only repetitions, run back to back after the timed ones.
  std::vector<Rep> setups;
  for (int i = 0; i < kSetupProbes; ++i) {
    setups.push_back(rep(Mode::SetupOnly, nullptr));
  }
  print_summary("setup_s (set-up only)", "s", setups,
                [](const Rep& r) { return r.setup_s; });
  res.add("throughput_m_s", median_of(reps, throughput), "M/s");
  res.add("setup_s",
          median_of(setups, [](const Rep& r) { return r.setup_s; }), "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

Result traced(const Workload& w, const Options& opt, const RepFn& rep) {
  Result res;
  const double t0 = wall_s();
  const std::vector<LayerStat> layers = measure_layers(kCholTile);
  std::printf("# %-40s %12s %12s %12s %4s\n", "layer op", "median", "q1",
              "q3", "n");
  for (const LayerStat& l : layers) {
    std::printf("# %-40s %12.6g %12.6g %12.6g %4zu  [%s]\n", l.name.c_str(),
                l.s.median, l.s.q1, l.s.q3, l.s.n, l.unit.c_str());
  }

  // Untraced and traced repetitions alternate, so drift on the host hits
  // both sides alike; their difference is the tracing overhead.
  const int nranks = w.nranks ? w.nranks : threads_ranks();
  SpanRecorder rec(nranks, 20000);
  std::vector<Rep> plain, spans;
  const double budget = std::max(opt.seconds - (wall_s() - t0),
                                 0.4 * opt.seconds);
  std::vector<Rep> all = repeat(res, budget, 4, [&](int i) {
    if (i >= 0 && i % 2 == 1) {
      rec.set_run(static_cast<std::uint32_t>(i));
      return rep(Mode::Traced, &rec);
    }
    return rep(Mode::Traced, nullptr);
  });
  for (std::size_t i = 0; i < all.size(); ++i) {
    (i % 2 ? spans : plain).push_back(all[i]);
  }
  std::printf("# untraced repetitions:\n");
  print_workload_figures(w.name, plain);
  std::printf("# traced repetitions:\n");
  print_workload_figures(w.name, spans);

  using Field = std::function<double(const Rep&)>;
  auto over_spans = [&](const Field& f) { return median_of(spans, f); };
  auto over_plain = [&](const Field& f) { return median_of(plain, f); };
  auto span_ns = [](const Rep& r, SpanName n, bool self) {
    const SpanTotals& t = r.span[static_cast<std::size_t>(n)];
    return static_cast<double>(self ? t.self_ns : t.total_ns);
  };
  auto stat = [&](auto field) {
    return over_spans([field](const Rep& r) {
      return static_cast<double>(r.stats.*field);
    });
  };

  for (const LayerStat& l : layers) res.add(l.name, l.s.median, l.unit);

  const bool owns_tasks = spans.front().span[static_cast<std::size_t>(
                              SpanName::Task)].count > 0;
  const Field hash_frac = [&](const Rep& r) {
    return ratio(span_ns(r, SpanName::Hash, false),
                 span_ns(r, SpanName::Task, false));
  };
  res.add("apps.uts.hash_frac",
          std::string(w.name) == "uts-threads" ? over_spans(hash_frac) : 0.0,
          "frac");
  const bool sim = std::string(w.name) == "uts-sim";
  const Field ns_per_node = [](const Rep& r) {
    return r.solve_s / r.items * 1e9;
  };
  const Field us_per_rank = [](const Rep& r) {
    return r.setup_s * 1e6 / kSimRanks;
  };
  const Field virt = [](const Rep& r) { return r.virt_mnodes_s; };
  res.add("sim.host_ns_per_node", sim ? over_plain(ns_per_node) : 0.0, "ns");
  res.add("sim.setup_us_per_rank", sim ? over_plain(us_per_rank) : 0.0, "us");
  res.add("sim.virt_mnodes_s", sim ? over_plain(virt) : 0.0, "M/s");

  res.add("scioto.tasks", stat(&TcStats::tasks_executed), "count");
  res.add("scioto.steals", stat(&TcStats::steals), "count");
  res.add("scioto.steal_attempts", stat(&TcStats::steal_attempts), "count");
  res.add("scioto.tasks_stolen", stat(&TcStats::tasks_stolen), "count");
  res.add("scioto.releases", stat(&TcStats::releases), "count");
  res.add("scioto.reacquires", stat(&TcStats::reacquires), "count");
  res.add("scioto.steal_success", over_spans([](const Rep& r) {
            return ratio(static_cast<double>(r.stats.steals),
                         static_cast<double>(r.stats.steal_attempts));
          }), "frac");
  res.add("scioto.tasks_per_steal", over_spans([](const Rep& r) {
            return ratio(static_cast<double>(r.stats.tasks_stolen),
                         static_cast<double>(r.stats.steals));
          }), "ratio");
  res.add("scioto.exec_frac", over_spans([](const Rep& r) {
            return ratio(static_cast<double>(r.stats.time_working),
                         static_cast<double>(r.stats.time_total));
          }), "frac");
  res.add("scioto.search_frac", over_spans([](const Rep& r) {
            return ratio(static_cast<double>(r.stats.time_searching),
                         static_cast<double>(r.stats.time_total));
          }), "frac");
  res.add("scioto.sched_ns_per_task",
          owns_tasks ? over_spans([&](const Rep& r) {
            return ratio(span_ns(r, SpanName::Process, true),
                         static_cast<double>(r.stats.tasks_executed));
          })
                     : 0.0,
          "ns");
  res.add("scioto.td_waves", stat(&TcStats::td_waves_voted), "count");
  res.add("scioto.td_black_frac", over_spans([](const Rep& r) {
            return ratio(static_cast<double>(r.stats.td_black_votes),
                         static_cast<double>(r.stats.td_waves_voted));
          }), "frac");
  res.add("scioto.term_tail_us",
          owns_tasks ? over_spans([](const Rep& r) { return r.term_tail_us; })
                     : 0.0,
          "us");

  auto dagf = [&](auto field) {
    return over_spans([field](const Rep& r) {
      return static_cast<double>(r.dag.*field);
    });
  };
  res.add("dag.nodes_run", dagf(&dag::DagStats::nodes_run), "count");
  res.add("dag.remote_fires", dagf(&dag::DagStats::remote_fires), "count");
  res.add("dag.conflict_retries", dagf(&dag::DagStats::conflict_retries),
          "count");
  res.add("dag.version_waits", dagf(&dag::DagStats::version_waits), "count");

  for (SpanName n : {SpanName::Setup, SpanName::Process, SpanName::Task,
                     SpanName::Hash, SpanName::Add}) {
    res.add(std::string("trace.") + span_name(n) + "_self_ms",
            over_spans([&](const Rep& r) {
              return span_ns(r, n, true) * 1e-6;
            }),
            "ms");
  }
  const Field solve = [](const Rep& r) { return r.solve_s; };
  const double plain_s = over_plain(solve);
  const double spans_s = over_spans(solve);
  res.add("trace.overhead_frac", ratio(spans_s - plain_s, plain_s), "frac");
  std::printf("# tracing overhead: traced %.6g s - untraced %.6g s = %+.2f%%\n",
              spans_s, plain_s, 100 * ratio(spans_s - plain_s, plain_s));

  const std::string path = opt.out_dir + "/spans-" + w.name + "-seed" +
                           std::to_string(opt.seed) + ".json";
  if (rec.write_json(path)) {
    std::printf("# spans: %llu kept, %llu beyond the per-rank cap -> %s\n",
                static_cast<unsigned long long>(rec.records_kept()),
                static_cast<unsigned long long>(rec.records_dropped()),
                path.c_str());
  } else {
    std::printf("# spans: cannot write %s\n", path.c_str());
  }
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Workload& w : kWorkloads) v.emplace_back(w.name);
    return v;
  }();
  return names;
}

Result run_workload(const Options& opt) {
  for (const Workload& w : kWorkloads) {
    if (opt.workload != w.name) continue;
    const RepFn rep = w.prepare(opt);
    return opt.trace ? traced(w, opt, rep) : end_to_end(w, opt, rep);
  }
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

}  // namespace perfbench
