// Differential test battery for the steal protocols: the same workloads
// run under every {locked, aborting} x {fixed chunk, steal-half} steal
// configuration, and under each SCIOTO_QUEUE protocol, must produce
// results identical to the sequential oracle, on both the simulated and
// the real-threads backend, across many scheduler seeds.
//
// Two workloads:
//   * UTS tree traversal -- exact node/leaf/depth counts vs
//     uts_sequential();
//   * blocked matmul over Global Arrays (the paper's §4 running example)
//     -- numerical result vs a dense reference, and exactly one task
//     executed per block triple.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/uts/uts.hpp"
#include "apps/uts/uts_drivers.hpp"
#include "base/linalg.hpp"
#include "ga/global_array.hpp"
#include "scioto/task_collection.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

using apps::UtsCounts;
using apps::UtsParams;
using apps::UtsRunConfig;

constexpr int kRanks = 4;
constexpr int kSeeds = 8;

/// One steal configuration under test.
struct Knobs {
  const char* name;
  QueueMode mode = QueueMode::Split;
  bool adaptive = false;
};

/// The {locked, aborting} x {fixed chunk, steal-half} grid.
constexpr Knobs kGrid[] = {
    {"baseline", QueueMode::Split, false},
    {"aborting", QueueMode::Aborting, false},
    {"adaptive", QueueMode::Split, true},
    {"aborting+adaptive", QueueMode::Aborting, true},
};

class DifferentialTest
    : public ::testing::TestWithParam<pgas::BackendKind> {};

TEST_P(DifferentialTest, UtsMatchesSequentialOracle) {
  const UtsParams tree = apps::uts_tiny();
  const UtsCounts expected = apps::uts_sequential(tree);
  ASSERT_GT(expected.nodes, 0u);

  for (const Knobs& k : kGrid) {
    for (int s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = 1000 + 77 * static_cast<std::uint64_t>(s);
      UtsCounts got;
      TcStats stats;
      testing::run(
          kRanks, GetParam(),
          [&](pgas::Runtime& rt) {
            UtsRunConfig cfg;
            cfg.chunk = 2;  // small chunks force steal traffic on a tiny tree
            cfg.queue_mode = k.mode;
            cfg.adaptive_steal = k.adaptive;
            auto res = apps::uts_run_scioto(rt, tree, cfg);
            if (rt.me() == 0) {
              got = res.counts;
              stats = res.stats;
            }
          },
          seed);
      EXPECT_EQ(got.nodes, expected.nodes)
          << "knobs=" << k.name << " seed=" << seed;
      EXPECT_EQ(got.leaves, expected.leaves)
          << "knobs=" << k.name << " seed=" << seed;
      EXPECT_EQ(got.max_depth, expected.max_depth)
          << "knobs=" << k.name << " seed=" << seed;
      // Tasks and tree nodes are not 1:1 (a task may expand a whole
      // subtree stack); the exact-count oracle above is the correctness
      // criterion.
      EXPECT_GT(stats.tasks_executed, 0u)
          << "knobs=" << k.name << " seed=" << seed;
      if (k.mode != QueueMode::Aborting) {
        EXPECT_EQ(stats.steals_lock_busy, 0u) << "knobs=" << k.name;
        EXPECT_EQ(stats.steal_retargets, 0u) << "knobs=" << k.name;
      }
      // Only LockFree's reacquire publishes a validated split; the locked
      // protocols always lower it under the owner's lock.
      EXPECT_EQ(stats.reacquires_fast, 0u) << "knobs=" << k.name;
    }
  }
}

TEST_P(DifferentialTest, UtsBinomialMatchesSequentialOracle) {
  // A second tree shape: the binomial variant is bushier near the leaves,
  // so the shared portions stay deep and the steal-half width actually
  // varies instead of saturating at chunk_size.
  const UtsParams tree = apps::uts_binomial_small();
  const UtsCounts expected = apps::uts_sequential(tree);
  ASSERT_GT(expected.nodes, 0u);

  for (const Knobs& k : kGrid) {
    for (int s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = 9000 + 131 * static_cast<std::uint64_t>(s);
      UtsCounts got;
      testing::run(
          kRanks, GetParam(),
          [&](pgas::Runtime& rt) {
            UtsRunConfig cfg;
            cfg.chunk = 4;
            cfg.queue_mode = k.mode;
            cfg.adaptive_steal = k.adaptive;
            auto res = apps::uts_run_scioto(rt, tree, cfg);
            if (rt.me() == 0) got = res.counts;
          },
          seed);
      EXPECT_EQ(got, expected) << "knobs=" << k.name << " seed=" << seed;
    }
  }
}

// ---- Queue-mode matrix ----

/// The three production steal protocols behind SCIOTO_QUEUE: locked
/// (the paper's blocking chunked steals), aborting (trylock + retarget),
/// and lockfree (the Chase-Lev tagged-CAS path). Same UTS workload, both
/// backends, eight scheduler seeds each: every cell must reproduce the
/// sequential oracle exactly. Lockfree stays opt-in -- the default mode
/// is untouched Split, so the fig4/fig7 trace goldens (test_trace) stay
/// byte-identical with this feature merely compiled in.
struct ModeRow {
  const char* name;
  QueueMode mode;
};

constexpr ModeRow kModes[] = {
    {"locked", QueueMode::Split},
    {"aborting", QueueMode::Aborting},
    {"lockfree", QueueMode::LockFree},
};

TEST_P(DifferentialTest, QueueModeMatrixMatchesSequentialOracle) {
  const UtsParams tree = apps::uts_tiny();
  const UtsCounts expected = apps::uts_sequential(tree);
  ASSERT_GT(expected.nodes, 0u);

  for (const ModeRow& m : kModes) {
    for (int s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = 4000 + 53 * static_cast<std::uint64_t>(s);
      UtsCounts got;
      TcStats stats;
      testing::run(
          kRanks, GetParam(),
          [&](pgas::Runtime& rt) {
            UtsRunConfig cfg;
            cfg.chunk = 2;
            cfg.queue_mode = m.mode;
            auto res = apps::uts_run_scioto(rt, tree, cfg);
            if (rt.me() == 0) {
              got = res.counts;
              stats = res.stats;
            }
          },
          seed);
      EXPECT_EQ(got, expected) << "mode=" << m.name << " seed=" << seed;
      EXPECT_GT(stats.tasks_executed, 0u)
          << "mode=" << m.name << " seed=" << seed;
      if (m.mode != QueueMode::Aborting) {
        // Neither pure-locked nor lockfree ever bounces off a held lock:
        // the former convoys, the latter has no lock on the steal path.
        EXPECT_EQ(stats.steals_lock_busy, 0u)
            << "mode=" << m.name << " seed=" << seed;
        EXPECT_EQ(stats.steal_retargets, 0u)
            << "mode=" << m.name << " seed=" << seed;
      }
      if (m.mode != QueueMode::LockFree) {
        EXPECT_EQ(stats.reacquires_fast, 0u)
            << "mode=" << m.name << " seed=" << seed;
      }
    }
  }
}

// ---- Matmul differential ----

struct MmTask {
  std::int32_t block[3];
};

double a_val(std::int64_t i, std::int64_t j) {
  return 0.01 * static_cast<double>(i) + 0.02 * static_cast<double>(j);
}
double b_val(std::int64_t i, std::int64_t j) {
  return (i == j ? 1.0 : 0.0) + 0.001 * static_cast<double>(i + j);
}

/// Runs one blocked matmul under the given knobs and returns rank 0's view
/// of {global max error vs dense reference, tasks executed globally}.
struct MmResult {
  double max_err = 1.0;
  std::uint64_t tasks = 0;
};

MmResult run_matmul(pgas::BackendKind kind, const Knobs& k,
                    std::uint64_t seed) {
  constexpr std::int64_t nb = 4, bs = 8, n = nb * bs;
  MmResult out;
  testing::run(
      kRanks, kind,
      [&](pgas::Runtime& rt) {
        ga::GlobalArray a(rt, n, n, "A"), b(rt, n, n, "B"), c(rt, n, n, "C");
        for (std::int64_t i = a.row_lo(rt.me()); i < a.row_hi(rt.me()); ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            a.local_panel()[(i - a.row_lo(rt.me())) * n + j] = a_val(i, j);
            b.local_panel()[(i - b.row_lo(rt.me())) * n + j] = b_val(i, j);
          }
        }
        rt.barrier();

        TcConfig tcc;
        tcc.max_task_body = sizeof(MmTask);
        tcc.chunk_size = 2;
        tcc.queue_mode = k.mode;
        tcc.adaptive_steal = k.adaptive;
        TaskCollection tc(rt, tcc);

        std::vector<double> abuf(bs * bs), bbuf(bs * bs), cbuf(bs * bs);
        TaskHandle mm = tc.register_callback([&](TaskContext& ctx) {
          const auto& t = ctx.body_as<MmTask>();
          std::int64_t i0 = t.block[0] * bs, j0 = t.block[1] * bs,
                       k0 = t.block[2] * bs;
          a.get(i0, i0 + bs, k0, k0 + bs, abuf.data(), bs);
          b.get(k0, k0 + bs, j0, j0 + bs, bbuf.data(), bs);
          matmul(abuf.data(), bbuf.data(), cbuf.data(), bs, bs, bs);
          c.acc(i0, i0 + bs, j0, j0 + bs, cbuf.data(), bs, 1.0);
        });

        Task task = tc.task_create(sizeof(MmTask), mm);
        for (std::int32_t i = 0; i < nb; ++i) {
          for (std::int32_t j = 0; j < nb; ++j) {
            for (std::int32_t kk = 0; kk < nb; ++kk) {
              if (c.owner_of_patch(i * bs, j * bs) != rt.me()) continue;
              task.body_as<MmTask>() = {{i, j, kk}};
              tc.add_local(task, kAffinityHigh);
              task.reuse();
            }
          }
        }
        tc.process();

        std::vector<double> aref(static_cast<std::size_t>(n) * n),
            bref(aref.size()), cref(aref.size());
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            aref[static_cast<std::size_t>(i * n + j)] = a_val(i, j);
            bref[static_cast<std::size_t>(i * n + j)] = b_val(i, j);
          }
        }
        matmul(aref.data(), bref.data(), cref.data(), n, n, n);
        double max_err = 0;
        for (std::int64_t i = c.row_lo(rt.me()); i < c.row_hi(rt.me()); ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            double got = c.local_panel()[(i - c.row_lo(rt.me())) * n + j];
            max_err = std::max(
                max_err,
                std::abs(got - cref[static_cast<std::size_t>(i * n + j)]));
          }
        }
        double global_err = rt.allreduce_max(max_err);
        TcStats g = tc.stats_global();
        if (rt.me() == 0) {
          out.max_err = global_err;
          out.tasks = g.tasks_executed;
        }
        tc.destroy();
        c.destroy();
        b.destroy();
        a.destroy();
      },
      seed);
  return out;
}

TEST_P(DifferentialTest, MatmulMatchesDenseReference) {
  constexpr std::uint64_t kExpectedTasks = 4 * 4 * 4;
  for (const Knobs& k : kGrid) {
    for (int s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = 500 + 13 * static_cast<std::uint64_t>(s);
      MmResult r = run_matmul(GetParam(), k, seed);
      EXPECT_LT(r.max_err, 1e-9) << "knobs=" << k.name << " seed=" << seed;
      EXPECT_EQ(r.tasks, kExpectedTasks)
          << "knobs=" << k.name << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, DifferentialTest,
                         ::testing::Values(pgas::BackendKind::Sim,
                                         pgas::BackendKind::Threads),
                         [](const auto& info) {
                           return testing::backend_name(info.param);
                         });

}  // namespace
}  // namespace scioto
