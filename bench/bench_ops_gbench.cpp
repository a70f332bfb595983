// Real-hardware microbenchmarks (google-benchmark) over the *threads*
// backend: the actual data-structure costs of the queue, RMW, SHA-1,
// fiber-switch and Cholesky tile-kernel primitives, and the DAG engine's
// cost per node, on this host,
// complementing bench_table1_ops' virtual-time reproduction of the paper's
// Table 1.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <vector>

#include "base/linalg.hpp"
#include "base/rng.hpp"
#include "base/sha1.hpp"
#include "dag/dag.hpp"
#include "pgas/runtime.hpp"
#include "scioto/queue.hpp"
#include "scioto/task.hpp"
#include "scioto/task_collection.hpp"
#include "sim/fiber.hpp"

namespace {

using namespace scioto;

constexpr std::size_t kBody = 1024;  // Table 1's task body size

SplitQueue::Config qcfg() {
  SplitQueue::Config c;
  c.slot_bytes = align_up(sizeof(TaskHeader) + kBody, 8);
  c.capacity = 1 << 16;
  c.chunk = 10;
  return c;
}

pgas::Config rt_cfg(int nranks) {
  pgas::Config cfg;
  cfg.nranks = nranks;
  cfg.backend = pgas::BackendKind::Threads;
  return cfg;
}

// One UTS child derivation: a 24-byte message, chained so each digest
// feeds the next call.
void BM_Sha1Hash24(benchmark::State& state) {
  std::uint8_t buf[24] = {1, 2, 3};
  for (auto _ : state) {
    const Sha1::Digest d = Sha1::hash(buf, sizeof(buf));
    std::memcpy(buf, d.data(), d.size());
  }
  benchmark::DoNotOptimize(buf);
}
BENCHMARK(BM_Sha1Hash24);

// Cholesky tile kernels at the tile size the DAG Cholesky runs (b = 16).
// Each call updates its own previous output in place, so no call can be
// hoisted out of the loop.
constexpr std::int64_t kTile = 16;

std::vector<double> random_tile(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> m(static_cast<std::size_t>(kTile * kTile));
  for (double& x : m) x = rng.uniform(-1, 1);
  return m;
}

// C -= A B^T: C drifts linearly, never into denormals.
void BM_GemmTile16(benchmark::State& state) {
  const std::vector<double> a = random_tile(1), b = random_tile(2);
  std::vector<double> c = random_tile(3);
  for (auto _ : state) {
    gemm_tile(c.data(), a.data(), b.data(), kTile);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GemmTile16);

void BM_SyrkTile16(benchmark::State& state) {
  const std::vector<double> a = random_tile(1);
  std::vector<double> c = random_tile(3);
  for (auto _ : state) {
    syrk_tile(c.data(), a.data(), kTile);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SyrkTile16);

// X = X L^-T with L built from 2 x 2 diagonal blocks [[1, 0], [a, -1]]:
// L is its own inverse, so repeated solves cycle instead of shrinking into
// denormals. The kernel does the same work for any values.
void BM_TrsmTile16(benchmark::State& state) {
  std::vector<double> l(static_cast<std::size_t>(kTile * kTile), 0.0);
  const std::vector<double> r = random_tile(4);
  for (std::int64_t i = 0; i < kTile; ++i) {
    l[static_cast<std::size_t>(i * kTile + i)] = i % 2 == 0 ? 1.0 : -1.0;
    if (i % 2 == 1) {
      l[static_cast<std::size_t>(i * kTile + i - 1)] =
          r[static_cast<std::size_t>(i)];
    }
  }
  std::vector<double> x = random_tile(5);
  for (auto _ : state) {
    trsm_tile(x.data(), l.data(), kTile);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TrsmTile16);

// The sim engine's context switch: each iteration resumes two fibers that
// yield straight back, i.e. two round trips (four switches).
void BM_FiberSwitch(benchmark::State& state) {
  bool stop = false;
  sim::Fiber* self[2] = {nullptr, nullptr};
  auto body = [&](int i) {
    while (!stop) self[i]->yield();
  };
  sim::Fiber a([&] { body(0); }, 64 * 1024);
  sim::Fiber b([&] { body(1); }, 64 * 1024);
  self[0] = &a;
  self[1] = &b;
  for (auto _ : state) {
    a.resume();
    b.resume();
  }
  stop = true;
  a.resume();
  b.resume();
}
BENCHMARK(BM_FiberSwitch);

void BM_QueueLocalPushPop(benchmark::State& state) {
  pgas::run_spmd(rt_cfg(1), [&](pgas::Runtime& rt) {
    SplitQueue q(rt, qcfg());
    std::vector<std::byte> task(q.slot_bytes(), std::byte{3});
    for (auto _ : state) {
      benchmark::DoNotOptimize(q.push_local(task.data(), kAffinityHigh));
      benchmark::DoNotOptimize(q.pop_local(task.data()));
    }
    q.destroy();
  });
}
BENCHMARK(BM_QueueLocalPushPop);

void BM_QueueReleaseReacquire(benchmark::State& state) {
  pgas::run_spmd(rt_cfg(1), [&](pgas::Runtime& rt) {
    SplitQueue::Config c = qcfg();
    c.release_threshold = 0;  // always eligible
    SplitQueue q(rt, c);
    std::vector<std::byte> task(q.slot_bytes(), std::byte{3});
    for (int i = 0; i < 64; ++i) {
      q.push_local(task.data(), kAffinityHigh);
    }
    for (auto _ : state) {
      benchmark::DoNotOptimize(q.release_maybe());
      benchmark::DoNotOptimize(q.reacquire());
    }
    q.destroy();
  });
}
BENCHMARK(BM_QueueReleaseReacquire);

void BM_RemoteAddPlusSteal(benchmark::State& state) {
  // Rank 1 drives: 10 remote adds into rank 0's patch, then one 10-task
  // steal back -- the full one-sided transfer path (locks + memcpy) on
  // real hardware.
  pgas::run_spmd(rt_cfg(2), [&](pgas::Runtime& rt) {
    SplitQueue q(rt, qcfg());
    if (rt.me() == 1) {
      std::vector<std::byte> task(q.slot_bytes(), std::byte{3});
      std::vector<std::byte> out(q.slot_bytes() * 10);
      for (auto _ : state) {
        for (int i = 0; i < 10; ++i) {
          benchmark::DoNotOptimize(q.add_remote(0, task.data()));
        }
        int got = q.steal_from(0, out.data());
        benchmark::DoNotOptimize(got);
      }
      // Signal rank 0 we are done.
      rt.send(0, 1, &state, sizeof(void*));
    } else {
      std::byte buf[sizeof(void*)];
      rt.recv(1, 1, buf, sizeof(buf));
    }
    q.destroy();
  });
}
BENCHMARK(BM_RemoteAddPlusSteal)->Unit(benchmark::kMicrosecond);

void BM_FetchAdd(benchmark::State& state) {
  pgas::run_spmd(rt_cfg(1), [&](pgas::Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(8);
    for (auto _ : state) {
      benchmark::DoNotOptimize(rt.fetch_add(seg, 0, 0, 1));
    }
    rt.seg_free(seg);
  });
}
BENCHMARK(BM_FetchAdd);

// The dependence graph cholesky_dag builds for an nt x nt tile grid --
// potrf(k), trsm(i, k), update(i, j, k) nodes in its order, every edge
// versioned, one conflict group per multiply-downdated tile -- with empty
// bodies, all homed on rank 0. Returns the node count.
std::int64_t build_cholesky_shape(dag::DagScheduler& dg, int nt,
                                  const dag::DataDep& dep) {
  auto empty = [](dag::NodeCtx&) {};
  const auto at = [nt](int i, int k) {
    return static_cast<std::size_t>(i * nt + k);
  };
  std::vector<dag::NodeId> potrf(static_cast<std::size_t>(nt));
  std::vector<dag::NodeId> trsm(at(nt, 0), -1);
  std::vector<dag::GroupId> grp(at(nt, 0), dag::kNoGroup);
  for (int k = 0; k < nt; ++k) {
    potrf[static_cast<std::size_t>(k)] = dg.add_node(0, empty);
    for (int i = k + 1; i < nt; ++i) {
      trsm[at(i, k)] = dg.add_node(0, empty);
      for (int j = k + 1; j <= i; ++j) {
        if (grp[at(i, j)] == dag::kNoGroup && j >= 2) {
          grp[at(i, j)] = dg.conflict_group();
        }
        dg.add_node(0, empty, grp[at(i, j)]);
      }
    }
  }
  // update(i, j, k) was added right after trsm(i, k).
  const auto upd = [&](int i, int j, int k) {
    return trsm[at(i, k)] + (j - k);
  };
  for (int k = 0; k < nt; ++k) {
    const dag::NodeId p = potrf[static_cast<std::size_t>(k)];
    for (int kp = 0; kp < k; ++kp) dg.add_edge(upd(k, k, kp), p, dep);
    for (int i = k + 1; i < nt; ++i) {
      const dag::NodeId t = trsm[at(i, k)];
      dg.add_edge(p, t, dep);
      for (int kp = 0; kp < k; ++kp) dg.add_edge(upd(i, k, kp), t, dep);
      for (int j = k + 1; j <= i; ++j) {
        dg.add_edge(t, upd(i, j, k), dep);
        if (j != i) dg.add_edge(trsm[at(j, k)], upd(i, j, k), dep);
      }
    }
  }
  return static_cast<std::int64_t>(dg.num_nodes());
}

// The DAG engine's cost per node, task collection included: build and
// execute the 64 x 64 tile-grid Cholesky graph (45760 nodes) with empty
// bodies on one threads rank. `time_per_node` is the layer number; the
// task collection's create/destroy stays outside the timed region.
void BM_DagEmptyNodes(benchmark::State& state) {
  constexpr int kTiles = 64;
  std::int64_t nodes = 0;
  pgas::run_spmd(rt_cfg(1), [&](pgas::Runtime& rt) {
    dag::DataDep dep;
    dep.seg = rt.seg_alloc(sizeof(std::int64_t));
    dep.owner = 0;
    dep.len = sizeof(std::int64_t);
    for (auto _ : state) {
      state.PauseTiming();
      auto tc = std::make_unique<TaskCollection>(rt);
      state.ResumeTiming();
      {
        dag::DagScheduler dg(*tc);
        nodes = build_cholesky_shape(dg, kTiles, dep);
        dg.execute();
        benchmark::DoNotOptimize(dg.stats_local().nodes_run);
      }
      state.PauseTiming();
      tc->destroy();
      tc.reset();
      state.ResumeTiming();
    }
    rt.seg_free(dep.seg);
  });
  state.counters["time_per_node"] = benchmark::Counter(
      static_cast<double>(nodes),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_DagEmptyNodes)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
