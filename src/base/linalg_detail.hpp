// Internal: the two builds of the Cholesky tile kernels behind
// trsm_tile / syrk_tile / gemm_tile.
//
// linalg.cpp picks one build once, at start-up, from CPUID; there is no way
// to choose at run time. Both are exposed only so tests can check that each
// is bit-identical to the textbook loops.
#pragma once

#include <cstdint>

namespace scioto::detail {

/// Portable build: 2-wide vectors (SSE2 on x86-64); runs everywhere.
void trsm_tile_portable(double* bmat, const double* l, std::int64_t b);
void syrk_tile_portable(double* c, const double* a, std::int64_t b);
void gemm_tile_portable(double* c, const double* a, const double* bmat,
                        std::int64_t b);

/// True when this CPU and OS support AVX (256-bit vectors).
bool linalg_avx_supported();

/// AVX build: 4-wide vectors, no FMA. Call only when
/// linalg_avx_supported(); on other architectures these are the portable
/// functions.
void trsm_tile_avx(double* bmat, const double* l, std::int64_t b);
void syrk_tile_avx(double* c, const double* a, std::int64_t b);
void gemm_tile_avx(double* c, const double* a, const double* bmat,
                   std::int64_t b);

}  // namespace scioto::detail
