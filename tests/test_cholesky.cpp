// Tests for the tiled Cholesky application (src/apps/cholesky): the DAG
// schedule on both backends and the static baseline, each checked for a
// machine-precision residual and the exact tile-task count. Under sim the
// schedule is deterministic, so the factored matrix's bytes are pinned by
// digest: a tile-kernel change that is not bit-identical fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/cholesky/cholesky.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

// potrf + trsms + trailing updates for every panel step k.
std::uint64_t task_count(int nt) {
  std::uint64_t n = 0;
  for (int k = 0; k < nt; ++k) {
    const auto rest = static_cast<std::uint64_t>(nt - k - 1);
    n += 1 + rest + rest * (rest + 1) / 2;
  }
  return n;
}

apps::CholeskyConfig config(int tiles, int tile) {
  apps::CholeskyConfig cc;
  cc.tiles = tiles;
  cc.tile = tile;
  return cc;
}

// Recorded from the scalar textbook tile kernels (sim, 8 ranks, test
// machine, seed 42, 8 x 8 tiles of 16).
constexpr const char* kSimFactorSha1 =
    "429b0e3fd754d60cbeee9cfb902c587c1a77096d";

TEST(CholeskyDag, SimFactorIsBitIdentical) {
  ASSERT_EQ(task_count(8), 120u);
  testing::run_sim(8, [&](pgas::Runtime& rt) {
    const apps::CholeskyResult r = apps::cholesky_dag(rt, config(8, 16));
    EXPECT_LT(r.residual, 1e-12);
    EXPECT_EQ(r.tasks_run, 120u);
    if (rt.me() == 0) {
      EXPECT_EQ(Sha1::hex(r.factor_sha1), kSimFactorSha1);
    }
  });
}

TEST(CholeskyDag, ThreadsResidualAndTaskCount) {
  testing::run_threads(4, [&](pgas::Runtime& rt) {
    const apps::CholeskyResult r = apps::cholesky_dag(rt, config(6, 8));
    EXPECT_LT(r.residual, 1e-12);
    EXPECT_EQ(r.tasks_run, task_count(6));
  });
}

TEST(CholeskyStatic, SimResidual) {
  testing::run_sim(8, [&](pgas::Runtime& rt) {
    const apps::CholeskyResult r = apps::cholesky_static(rt, config(8, 16));
    EXPECT_LT(r.residual, 1e-12);
    EXPECT_EQ(r.tasks_run, 120u);
  });
}

}  // namespace
}  // namespace scioto
