#include "base/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "base/error.hpp"
#include "base/linalg_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SCIOTO_LINALG_X86 1
#endif

namespace scioto {

void matmul(const double* a, const double* b, double* c, std::int64_t m,
            std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      c[i * n + j] = 0.0;
    }
    for (std::int64_t p = 0; p < k; ++p) {
      double aip = a[i * k + p];
      if (aip == 0.0) continue;
      const double* brow = b + p * n;
      double* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += aip * brow[j];
      }
    }
  }
}

double frobenius(const double* a, std::int64_t m, std::int64_t n) {
  double s = 0;
  for (std::int64_t i = 0; i < m * n; ++i) {
    s += a[i] * a[i];
  }
  return std::sqrt(s);
}

bool potrf_tile(double* a, std::int64_t b) {
  for (std::int64_t k = 0; k < b; ++k) {
    double d = a[k * b + k];
    for (std::int64_t t = 0; t < k; ++t) {
      d -= a[k * b + t] * a[k * b + t];
    }
    if (d <= 0.0) return false;
    d = std::sqrt(d);
    a[k * b + k] = d;
    for (std::int64_t i = k + 1; i < b; ++i) {
      double s = a[i * b + k];
      for (std::int64_t t = 0; t < k; ++t) {
        s -= a[i * b + t] * a[k * b + t];
      }
      a[i * b + k] = s / d;
    }
  }
  return true;
}

// ---- Tile kernels: trsm / syrk / gemm ----
//
// Each output element is one reduction over t, run in exactly the order
// of the textbook loop (s = 0; s += a*b for t = 0..b-1; c -= s for
// gemm/syrk, and s = x; s -= x*l for t < c; x = s / l for trsm). The
// vectors run across a free output index -- columns j for gemm/syrk, rows
// r for trsm -- so no sum is reassociated and the results are bit-identical
// to the scalar loops. Products and sums stay separate instructions: the
// AVX build enables neither `fma` nor `avx2`, so nothing can contract.

namespace {

// Register block: kMr rows x kNr columns of accumulators. The right-hand
// panel of kNr columns is packed t-major (kNr doubles per t).
constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = 8;

using V2 = double __attribute__((vector_size(16)));
using V4 = double __attribute__((vector_size(32)));

// One vector from / to unaligned doubles. Vectors are copied one at a time:
// a block copy may be split into narrower moves, and reloading those as a
// full vector stalls store forwarding.
template <class V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}
template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// Packs `rows` (<= kNr) rows of a b x b tile, starting at `src`, into
// dst[t * kNr + m] = src[m][t]. Lanes m >= rows (past the tile's edge) are
// zero: they are computed like the others but never stored back.
[[gnu::always_inline]] inline void pack_strip(double* dst, const double* src,
                                              std::int64_t rows,
                                              std::int64_t b) {
  for (std::int64_t m = 0; m < kNr; ++m) {
    if (m < rows) {
      const double* row = src + m * b;
      for (std::int64_t t = 0; t < b; ++t) dst[t * kNr + m] = row[t];
    } else {
      for (std::int64_t t = 0; t < b; ++t) dst[t * kNr + m] = 0.0;
    }
  }
}

// Panel scratch: kNr * b doubles. Tiles up to kStackT fit the stack
// buffer; larger ones reuse a per-thread buffer that only grows, so no
// call allocates once the largest tile size has been seen. Sim ranks share
// a thread, but a kernel never yields, so no two calls use it at once.
constexpr std::int64_t kStackT = 64;

class PanelScratch {
 public:
  explicit PanelScratch(std::int64_t b) : p_(local_) {
    if (b > kStackT) {
      thread_local std::vector<double> big;
      const auto need = static_cast<std::size_t>(kNr * b);
      if (big.size() < need) big.resize(need);
      p_ = big.data();
    }
  }
  // p_ may point into this object.
  PanelScratch(const PanelScratch&) = delete;
  PanelScratch& operator=(const PanelScratch&) = delete;

  double* get() { return p_; }

 private:
  alignas(64) double local_[kNr * kStackT];
  double* p_;
};

// c[i0 + r][j0 + jj] -= sum_t a[i0 + r][t] * panel[t][jj] for r < R and
// jj < min(jw, cols(r)): cols(r) is kNr for gemm and i0 + r - j0 + 1 for
// the lower-triangular syrk. Lanes past jw hold zero-padded columns.
template <class V, std::int64_t R, bool Lower>
[[gnu::always_inline]] inline void update_block(double* c, const double* a,
                                                const double* panel,
                                                std::int64_t b, std::int64_t i0,
                                                std::int64_t j0,
                                                std::int64_t jw) {
  constexpr std::int64_t kL = sizeof(V) / sizeof(double);
  constexpr std::int64_t kNv = kNr / kL;
  V acc[R][kNv] = {};
  const double* arow = a + i0 * b;
  for (std::int64_t t = 0; t < b; ++t) {
    V p[kNv];
#pragma GCC unroll 4
    for (std::int64_t v = 0; v < kNv; ++v) {
      load(p[v], panel + t * kNr + v * kL);
    }
#pragma GCC unroll 4
    for (std::int64_t r = 0; r < R; ++r) {
      const double ar = arow[r * b + t];
#pragma GCC unroll 4
      for (std::int64_t v = 0; v < kNv; ++v) acc[r][v] += ar * p[v];
    }
  }
#pragma GCC unroll 4
  for (std::int64_t r = 0; r < R; ++r) {
    double* crow = c + (i0 + r) * b + j0;
    const std::int64_t cols = Lower ? std::min(jw, i0 + r - j0 + 1) : jw;
    if (cols == kNr) {
#pragma GCC unroll 4
      for (std::int64_t v = 0; v < kNv; ++v) {
        V cv;
        load(cv, crow + v * kL);
        store(crow + v * kL, cv - acc[r][v]);
      }
    } else {
      double s[kNr];
#pragma GCC unroll 4
      for (std::int64_t v = 0; v < kNv; ++v) store(s + v * kL, acc[r][v]);
      for (std::int64_t jj = 0; jj < cols; ++jj) crow[jj] -= s[jj];
    }
  }
}

// C -= A * Bt^T, one packed kNr-column panel of Bt at a time; Lower
// keeps only j <= i (syrk).
template <class V, bool Lower>
[[gnu::always_inline]] inline void update_tile(double* c, const double* a,
                                               const double* bt,
                                               std::int64_t b) {
  PanelScratch scratch(b);
  double* panel = scratch.get();
  for (std::int64_t j0 = 0; j0 < b; j0 += kNr) {
    const std::int64_t jw = std::min(kNr, b - j0);
    pack_strip(panel, bt + j0 * b, jw, b);
    // Rows above the panel's first column hold no lower-triangle entry.
    std::int64_t i0 = Lower ? j0 : 0;
    for (; i0 + kMr <= b; i0 += kMr) {
      update_block<V, kMr, Lower>(c, a, panel, b, i0, j0, jw);
    }
    switch (b - i0) {
      case 3: update_block<V, 3, Lower>(c, a, panel, b, i0, j0, jw); break;
      case 2: update_block<V, 2, Lower>(c, a, panel, b, i0, j0, jw); break;
      case 1: update_block<V, 1, Lower>(c, a, panel, b, i0, j0, jw); break;
      default: break;
    }
  }
}

// X * L^T = B for kNr rows at a time: the rows are packed column-major
// (kNr doubles per column) so each column's forward substitution runs
// across the rows in vectors. Lanes past the last row are zero padding.
template <class V>
[[gnu::always_inline]] inline void solve_tile(double* x, const double* l,
                                              std::int64_t b) {
  constexpr std::int64_t kL = sizeof(V) / sizeof(double);
  constexpr std::int64_t kNv = kNr / kL;
  PanelScratch scratch(b);
  double* xt = scratch.get();
  for (std::int64_t r0 = 0; r0 < b; r0 += kNr) {
    const std::int64_t rw = std::min(kNr, b - r0);
    pack_strip(xt, x + r0 * b, rw, b);
    for (std::int64_t c = 0; c < b; ++c) {
      V s[kNv];
#pragma GCC unroll 4
      for (std::int64_t v = 0; v < kNv; ++v) {
        load(s[v], xt + c * kNr + v * kL);
      }
      const double* lrow = l + c * b;
      for (std::int64_t t = 0; t < c; ++t) {
#pragma GCC unroll 4
        for (std::int64_t v = 0; v < kNv; ++v) {
          V xv;
          load(xv, xt + t * kNr + v * kL);
          s[v] -= xv * lrow[t];
        }
      }
#pragma GCC unroll 4
      for (std::int64_t v = 0; v < kNv; ++v) {
        store(xt + c * kNr + v * kL, s[v] / lrow[c]);
      }
    }
    for (std::int64_t rr = 0; rr < rw; ++rr) {
      double* dst = x + (r0 + rr) * b;
      for (std::int64_t c = 0; c < b; ++c) dst[c] = xt[c * kNr + rr];
    }
  }
}

}  // namespace

namespace detail {

void trsm_tile_portable(double* bmat, const double* l, std::int64_t b) {
  solve_tile<V2>(bmat, l, b);
}

void syrk_tile_portable(double* c, const double* a, std::int64_t b) {
  update_tile<V2, true>(c, a, a, b);
}

void gemm_tile_portable(double* c, const double* a, const double* bmat,
                        std::int64_t b) {
  update_tile<V2, false>(c, a, bmat, b);
}

#ifdef SCIOTO_LINALG_X86

bool linalg_avx_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx") != 0;
  }();
  return supported;
}

__attribute__((target("avx"))) void trsm_tile_avx(double* bmat,
                                                  const double* l,
                                                  std::int64_t b) {
  solve_tile<V4>(bmat, l, b);
}

__attribute__((target("avx"))) void syrk_tile_avx(double* c, const double* a,
                                                  std::int64_t b) {
  update_tile<V4, true>(c, a, a, b);
}

__attribute__((target("avx"))) void gemm_tile_avx(double* c, const double* a,
                                                  const double* bmat,
                                                  std::int64_t b) {
  update_tile<V4, false>(c, a, bmat, b);
}

#else

bool linalg_avx_supported() { return false; }

void trsm_tile_avx(double* bmat, const double* l, std::int64_t b) {
  trsm_tile_portable(bmat, l, b);
}

void syrk_tile_avx(double* c, const double* a, std::int64_t b) {
  syrk_tile_portable(c, a, b);
}

void gemm_tile_avx(double* c, const double* a, const double* bmat,
                   std::int64_t b) {
  gemm_tile_portable(c, a, bmat, b);
}

#endif

}  // namespace detail

namespace {

struct TileKernels {
  void (*trsm)(double*, const double*, std::int64_t);
  void (*syrk)(double*, const double*, std::int64_t);
  void (*gemm)(double*, const double*, const double*, std::int64_t);
};

constexpr TileKernels kPortable = {&detail::trsm_tile_portable,
                                   &detail::syrk_tile_portable,
                                   &detail::gemm_tile_portable};
constexpr TileKernels kAvx = {&detail::trsm_tile_avx, &detail::syrk_tile_avx,
                              &detail::gemm_tile_avx};

// Constant-initialized to the portable build, so a kernel called during
// another translation unit's static initialization is still correct; the
// dynamic initializer below upgrades it once if the CPU has AVX.
const TileKernels* g_kernels = &kPortable;
[[maybe_unused]] const bool g_dispatched = [] {
  if (detail::linalg_avx_supported()) g_kernels = &kAvx;
  return true;
}();

}  // namespace

void trsm_tile(double* bmat, const double* l, std::int64_t b) {
  g_kernels->trsm(bmat, l, b);
}

void syrk_tile(double* c, const double* a, std::int64_t b) {
  g_kernels->syrk(c, a, b);
}

void gemm_tile(double* c, const double* a, const double* bmat,
               std::int64_t b) {
  g_kernels->gemm(c, a, bmat, b);
}

void jacobi_eigensymm(std::vector<double> a, std::int64_t n,
                      std::vector<double>& eigenvalues,
                      std::vector<double>& eigenvectors, int max_sweeps) {
  SCIOTO_REQUIRE(static_cast<std::int64_t>(a.size()) == n * n,
                 "jacobi: matrix size mismatch");
  // V starts as identity and accumulates rotations.
  std::vector<double> v(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i * n + i)] = 1.0;
  }

  auto at = [&](std::int64_t i, std::int64_t j) -> double& {
    return a[static_cast<std::size_t>(i * n + j)];
  };
  auto vt = [&](std::int64_t i, std::int64_t j) -> double& {
    return v[static_cast<std::size_t>(i * n + j)];
  };

  const double tol = 1e-14;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        off += at(i, j) * at(i, j);
      }
    }
    if (off < tol * tol) {
      break;
    }
    for (std::int64_t p = 0; p < n - 1; ++p) {
      for (std::int64_t q = p + 1; q < n; ++q) {
        double apq = at(p, q);
        if (std::abs(apq) < 1e-300) continue;
        double app = at(p, p), aqq = at(q, q);
        double theta = (aqq - app) / (2.0 * apq);
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;

        for (std::int64_t i = 0; i < n; ++i) {
          double aip = at(i, p), aiq = at(i, q);
          at(i, p) = c * aip - s * aiq;
          at(i, q) = s * aip + c * aiq;
        }
        for (std::int64_t i = 0; i < n; ++i) {
          double api = at(p, i), aqi = at(q, i);
          at(p, i) = c * api - s * aqi;
          at(q, i) = s * api + c * aqi;
        }
        for (std::int64_t i = 0; i < n; ++i) {
          double vip = vt(i, p), viq = vt(i, q);
          vt(i, p) = c * vip - s * viq;
          vt(i, q) = s * vip + c * viq;
        }
      }
    }
  }

  // Extract and sort eigenpairs ascending.
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int64_t x, std::int64_t y) {
    return at(x, x) < at(y, y);
  });
  eigenvalues.assign(static_cast<std::size_t>(n), 0.0);
  eigenvectors.assign(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t col = 0; col < n; ++col) {
    std::int64_t src = order[static_cast<std::size_t>(col)];
    eigenvalues[static_cast<std::size_t>(col)] = at(src, src);
    for (std::int64_t i = 0; i < n; ++i) {
      eigenvectors[static_cast<std::size_t>(i * n + col)] = vt(i, src);
    }
  }
}

}  // namespace scioto
