// Tests for the dense linear-algebra substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "base/linalg.hpp"
#include "base/linalg_detail.hpp"
#include "base/rng.hpp"

namespace scioto {
namespace {

TEST(Linalg, MatmulSmallKnown) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  double a[] = {1, 2, 3, 4};
  double b[] = {5, 6, 7, 8};
  double c[4];
  matmul(a, b, c, 2, 2, 2);
  EXPECT_DOUBLE_EQ(c[0], 19);
  EXPECT_DOUBLE_EQ(c[1], 22);
  EXPECT_DOUBLE_EQ(c[2], 43);
  EXPECT_DOUBLE_EQ(c[3], 50);
}

TEST(Linalg, MatmulRectangular) {
  // (2x3) * (3x1)
  double a[] = {1, 0, 2, 0, 3, 1};
  double b[] = {4, 5, 6};
  double c[2];
  matmul(a, b, c, 2, 3, 1);
  EXPECT_DOUBLE_EQ(c[0], 16);
  EXPECT_DOUBLE_EQ(c[1], 21);
}

TEST(Linalg, Frobenius) {
  double a[] = {3, 4, 0, 0};
  EXPECT_DOUBLE_EQ(frobenius(a, 2, 2), 5.0);
}

TEST(Linalg, JacobiDiagonalMatrix) {
  std::vector<double> a = {3, 0, 0, 0, 1, 0, 0, 0, 2};
  std::vector<double> w, v;
  jacobi_eigensymm(a, 3, w, v);
  EXPECT_NEAR(w[0], 1, 1e-12);
  EXPECT_NEAR(w[1], 2, 1e-12);
  EXPECT_NEAR(w[2], 3, 1e-12);
}

TEST(Linalg, JacobiKnown2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  std::vector<double> a = {2, 1, 1, 2};
  std::vector<double> w, v;
  jacobi_eigensymm(a, 2, w, v);
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  EXPECT_NEAR(w[1], 3.0, 1e-12);
  // Eigenvector for lambda=1 is ~(1,-1)/sqrt(2).
  EXPECT_NEAR(std::abs(v[0]), 1.0 / std::sqrt(2.0), 1e-10);
}

TEST(Linalg, JacobiReconstructsRandomSymmetric) {
  constexpr std::int64_t n = 40;
  Xoshiro256 rng(11);
  std::vector<double> a(n * n);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      double x = rng.uniform(-1, 1);
      a[static_cast<std::size_t>(i * n + j)] = x;
      a[static_cast<std::size_t>(j * n + i)] = x;
    }
  }
  std::vector<double> w, v;
  jacobi_eigensymm(a, n, w, v);

  // Eigenvalues sorted ascending.
  for (std::int64_t i = 1; i < n; ++i) {
    EXPECT_LE(w[static_cast<std::size_t>(i - 1)],
              w[static_cast<std::size_t>(i)]);
  }
  // A * v_col ~= w * v_col for every column.
  for (std::int64_t col = 0; col < n; ++col) {
    for (std::int64_t i = 0; i < n; ++i) {
      double av = 0;
      for (std::int64_t j = 0; j < n; ++j) {
        av += a[static_cast<std::size_t>(i * n + j)] *
              v[static_cast<std::size_t>(j * n + col)];
      }
      EXPECT_NEAR(av,
                  w[static_cast<std::size_t>(col)] *
                      v[static_cast<std::size_t>(i * n + col)],
                  1e-8);
    }
  }
  // Orthonormal eigenvectors.
  for (std::int64_t c1 = 0; c1 < 5; ++c1) {
    for (std::int64_t c2 = 0; c2 < 5; ++c2) {
      double dot = 0;
      for (std::int64_t i = 0; i < n; ++i) {
        dot += v[static_cast<std::size_t>(i * n + c1)] *
               v[static_cast<std::size_t>(i * n + c2)];
      }
      EXPECT_NEAR(dot, c1 == c2 ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Linalg, JacobiDeterministic) {
  std::vector<double> a = {4, 1, 2, 1, 3, 0.5, 2, 0.5, 5};
  std::vector<double> w1, v1, w2, v2;
  jacobi_eigensymm(a, 3, w1, v1);
  jacobi_eigensymm(a, 3, w2, v2);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(v1, v2);
}

// ---- Tile kernels: bit-identical to the textbook loops ----

// The scalar loops the vectorised kernels must reproduce bit for bit: one
// serial reduction over t per output element.
void ref_trsm(double* x, const double* l, std::int64_t b) {
  for (std::int64_t r = 0; r < b; ++r) {
    for (std::int64_t c = 0; c < b; ++c) {
      double s = x[r * b + c];
      for (std::int64_t t = 0; t < c; ++t) s -= x[r * b + t] * l[c * b + t];
      x[r * b + c] = s / l[c * b + c];
    }
  }
}

void ref_syrk(double* c, const double* a, std::int64_t b) {
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      double s = 0;
      for (std::int64_t t = 0; t < b; ++t) s += a[i * b + t] * a[j * b + t];
      c[i * b + j] -= s;
    }
  }
}

void ref_gemm(double* c, const double* a, const double* bt, std::int64_t b) {
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t j = 0; j < b; ++j) {
      double s = 0;
      for (std::int64_t t = 0; t < b; ++t) s += a[i * b + t] * bt[j * b + t];
      c[i * b + j] -= s;
    }
  }
}

struct KernelPath {
  const char* name;
  bool needs_avx;
  void (*trsm)(double*, const double*, std::int64_t);
  void (*syrk)(double*, const double*, std::int64_t);
  void (*gemm)(double*, const double*, const double*, std::int64_t);
};

void PrintTo(const KernelPath& p, std::ostream* os) { *os << p.name; }

// Both builds directly, plus the public entry points (whichever build the
// CPU picked at start-up).
const KernelPath kPaths[] = {
    {"Portable", false, &detail::trsm_tile_portable,
     &detail::syrk_tile_portable, &detail::gemm_tile_portable},
    {"Avx", true, &detail::trsm_tile_avx, &detail::syrk_tile_avx,
     &detail::gemm_tile_avx},
    {"Dispatched", false, &trsm_tile, &syrk_tile, &gemm_tile},
};

// 1..40 covers every ragged edge of the 4 x 8 register block; 64 and 80
// straddle the stack/per-thread panel scratch boundary.
std::vector<std::int64_t> tile_sizes() {
  std::vector<std::int64_t> v;
  for (std::int64_t b = 1; b <= 40; ++b) v.push_back(b);
  v.push_back(64);
  v.push_back(80);
  return v;
}

std::vector<double> random_tile(Xoshiro256& rng, std::int64_t b) {
  std::vector<double> m(static_cast<std::size_t>(b * b));
  for (double& x : m) x = rng.uniform(-1, 1);
  return m;
}

bool same_bytes(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

class TileKernels : public ::testing::TestWithParam<KernelPath> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx && !detail::linalg_avx_supported()) {
      GTEST_SKIP() << "CPU lacks AVX";
    }
  }
};

TEST_P(TileKernels, GemmMatchesTextbookBitForBit) {
  Xoshiro256 rng(21);
  for (const std::int64_t b : tile_sizes()) {
    const auto a = random_tile(rng, b), bt = random_tile(rng, b);
    auto want = random_tile(rng, b);
    auto got = want;
    ref_gemm(want.data(), a.data(), bt.data(), b);
    GetParam().gemm(got.data(), a.data(), bt.data(), b);
    EXPECT_TRUE(same_bytes(got, want)) << "b=" << b;
  }
}

TEST_P(TileKernels, SyrkMatchesTextbookBitForBit) {
  Xoshiro256 rng(22);
  for (const std::int64_t b : tile_sizes()) {
    const auto a = random_tile(rng, b);
    auto want = random_tile(rng, b);
    auto got = want;
    ref_syrk(want.data(), a.data(), b);
    GetParam().syrk(got.data(), a.data(), b);
    // Covers the strict upper triangle too: it must stay untouched.
    EXPECT_TRUE(same_bytes(got, want)) << "b=" << b;
  }
}

TEST_P(TileKernels, TrsmMatchesTextbookBitForBit) {
  Xoshiro256 rng(23);
  for (const std::int64_t b : tile_sizes()) {
    // A potrf-shaped factor: positive diagonal, and NaN above it so a
    // kernel that reads the strict upper triangle poisons its output.
    auto l = random_tile(rng, b);
    for (std::int64_t i = 0; i < b; ++i) {
      l[static_cast<std::size_t>(i * b + i)] = rng.uniform(1, 2);
      for (std::int64_t j = i + 1; j < b; ++j) {
        l[static_cast<std::size_t>(i * b + j)] =
            std::numeric_limits<double>::quiet_NaN();
      }
    }
    auto want = random_tile(rng, b);
    auto got = want;
    ref_trsm(want.data(), l.data(), b);
    GetParam().trsm(got.data(), l.data(), b);
    EXPECT_TRUE(same_bytes(got, want)) << "b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, TileKernels, ::testing::ValuesIn(kPaths),
    [](const ::testing::TestParamInfo<KernelPath>& info) {
      return std::string(info.param.name);
    });

TEST(Linalg, PotrfReconstructsSpdTile) {
  Xoshiro256 rng(24);
  for (const std::int64_t b : {1, 7, 16, 33}) {
    // A = M M^T + b I is SPD.
    const auto mm = random_tile(rng, b);
    std::vector<double> a(static_cast<std::size_t>(b * b));
    for (std::int64_t i = 0; i < b; ++i) {
      for (std::int64_t j = 0; j < b; ++j) {
        double s = i == j ? static_cast<double>(b) : 0.0;
        for (std::int64_t t = 0; t < b; ++t) {
          s += mm[static_cast<std::size_t>(i * b + t)] *
               mm[static_cast<std::size_t>(j * b + t)];
        }
        a[static_cast<std::size_t>(i * b + j)] = s;
      }
    }
    auto l = a;
    ASSERT_TRUE(potrf_tile(l.data(), b)) << "b=" << b;
    double num = 0, den = 0;
    for (std::int64_t i = 0; i < b; ++i) {
      for (std::int64_t j = 0; j < b; ++j) {
        double llt = 0;
        for (std::int64_t t = 0; t <= std::min(i, j); ++t) {
          llt += l[static_cast<std::size_t>(i * b + t)] *
                 l[static_cast<std::size_t>(j * b + t)];
        }
        const double aij = a[static_cast<std::size_t>(i * b + j)];
        num += (llt - aij) * (llt - aij);
        den += aij * aij;
      }
    }
    EXPECT_LT(std::sqrt(num / den), 1e-13) << "b=" << b;
  }
}

TEST(Linalg, PotrfRejectsNonSpd) {
  double a[] = {1, 0, 2, 1};  // lower triangle [[1], [2, 1]]: 1 - 4 < 0
  EXPECT_FALSE(potrf_tile(a, 2));
}

}  // namespace
}  // namespace scioto
