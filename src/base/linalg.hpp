// Small dense linear-algebra substrate: just enough for the SCF
// application's replicated density update (symmetric eigendecomposition
// via cyclic Jacobi) plus helpers used by tests and the matmul example.
//
// Matrices are row-major std::vector<double> with explicit dimensions;
// sizes here are O(100), so clarity beats blocking -- except for the
// Cholesky tile kernels below, which are register-blocked and vectorised
// yet bit-identical to their textbook loops (DESIGN §14).
#pragma once

#include <cstdint>
#include <vector>

namespace scioto {

/// C = A(m x k) * B(k x n), row-major.
void matmul(const double* a, const double* b, double* c, std::int64_t m,
            std::int64_t k, std::int64_t n);

/// Frobenius norm of an m x n matrix.
double frobenius(const double* a, std::int64_t m, std::int64_t n);

// ---- Tile kernels for blocked (right-looking) Cholesky ----
// All tiles are row-major b x b. These are the four BLAS-level building
// blocks of the tiled factorization: the DAG Cholesky app composes them;
// a task's entire compute is one kernel call on tiles it fetched
// one-sided.

/// In-place unblocked Cholesky of a b x b tile: A = L * L^T, lower
/// triangle of `a` replaced by L (strict upper left untouched).
/// Returns false if a non-positive pivot is hit (A not SPD).
bool potrf_tile(double* a, std::int64_t b);

/// Triangular solve B = B * L^-T with L the lower-triangular potrf output
/// (the panel update: A[i][k] after potrf of A[k][k]).
void trsm_tile(double* bmat, const double* l, std::int64_t b);

/// Symmetric rank-b downdate C -= A * A^T (trailing diagonal tile).
void syrk_tile(double* c, const double* a, std::int64_t b);

/// General downdate C -= A * B^T (trailing off-diagonal tile).
void gemm_tile(double* c, const double* a, const double* bmat,
               std::int64_t b);

/// Symmetric eigendecomposition by cyclic Jacobi rotations.
///
/// On input `a` is a symmetric n x n matrix (row-major, only fully stored
/// form is used). On output `eigenvalues[i]` / column i of `eigenvectors`
/// hold the i-th eigenpair, sorted ascending. Deterministic: the sweep
/// order is fixed, so every rank computing this replicated obtains
/// bit-identical results.
///
/// Converges quadratically; `max_sweeps` bounds the work (15 is far more
/// than needed for n <= 1000).
void jacobi_eigensymm(std::vector<double> a, std::int64_t n,
                      std::vector<double>& eigenvalues,
                      std::vector<double>& eigenvectors,
                      int max_sweeps = 30);

}  // namespace scioto
