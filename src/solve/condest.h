// Condition-number estimation via the factorization (Hager's method).
//
// ‖A⁻¹‖₁ is estimated with Hager's 1-norm power iteration (the LAPACK
// xLACON approach), using only triangular solves with the computed factor —
// the standard way a direct solver reports conditioning without forming
// A⁻¹. Symmetry of A makes the transpose solves identical. The solves come
// in as a SolveFn, so a resident and a spilled factor give the same bits.
#pragma once

#include "mf/factor.h"
#include "solve/solve.h"
#include "sparse/sparse_matrix.h"
#include "support/types.h"

namespace parfact {

/// Estimate of ‖A⁻¹‖₁ (a lower bound, usually within a factor ~3) for an
/// order-n matrix whose solves `solve` runs, one n x 1 block per call — in
/// the postordered space of the factor, since the norm is
/// permutation-invariant.
[[nodiscard]] real_t estimate_inverse_norm1(index_t n, const SolveFn& solve);
/// The same for a resident factor, through one schedule for every solve.
[[nodiscard]] real_t estimate_inverse_norm1(const CholeskyFactor& factor);

/// Estimated 1-norm condition number ‖A‖₁ ‖A⁻¹‖₁. `lower_a` is the
/// lower-stored symmetric matrix matching the factor's postordered matrix
/// (or any symmetric permutation of it).
[[nodiscard]] real_t estimate_condition_1(const SparseMatrix& lower_a,
                                          const SolveFn& solve);
[[nodiscard]] real_t estimate_condition_1(const SparseMatrix& lower_a,
                                          const CholeskyFactor& factor);

}  // namespace parfact
