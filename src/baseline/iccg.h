// Incomplete-Cholesky preconditioned conjugate gradients — the iterative
// baseline a direct-solver evaluation is traditionally weighed against
// (factor once + many cheap solves vs no setup + per-solve iteration).
#pragma once

#include <span>

#include "mf/multifrontal.h"
#include "sparse/sparse_matrix.h"
#include "support/types.h"

namespace parfact {

/// IC(0): incomplete Cholesky restricted to the pattern of the lower
/// triangle of A. Returns L (lower-stored CSC, same pattern as the input).
/// Throws StatusError(kBreakdown) on pivot breakdown (cannot happen for
/// the diagonally dominant / M-matrix problems of the suite) unless `pivot`
/// enables boosting, in which case tiny/non-positive pivots are replaced
/// and counted in `*perturbations` — this is what lets the IC(0)-CG
/// escalation fallback precondition near-singular matrices. A zero matrix
/// has no boost magnitude (pivot_magnitude), so it breaks down either way.
[[nodiscard]] SparseMatrix incomplete_cholesky0(
    const SparseMatrix& lower, PivotPolicy pivot = {},
    count_t* perturbations = nullptr);

struct CgResult {
  int iterations = 0;
  real_t residual = 0.0;   ///< final ‖b - A x‖₂ / ‖b‖₂
  bool converged = false;
};

/// Conjugate gradients on the symmetric lower-stored `a`; `x` holds the
/// initial guess on entry and the solution on exit. If `ic0` is non-null it
/// is used as a split preconditioner (solve L Lᵀ z = r each iteration).
CgResult conjugate_gradient(const SparseMatrix& lower_a,
                            std::span<const real_t> b, std::span<real_t> x,
                            const SparseMatrix* ic0 = nullptr,
                            int max_iterations = 1000, real_t tol = 1e-10);

}  // namespace parfact
