// Structural and numerical operations on CSC matrices.
#pragma once

#include <span>
#include <vector>

#include "sparse/sparse_matrix.h"
#include "support/types.h"

namespace parfact {

/// B = Aᵀ (also converts CSC<->CSR interpretation). O(nnz + rows).
[[nodiscard]] SparseMatrix transpose(const SparseMatrix& a);

/// True iff A is structurally and numerically symmetric (|a_ij - a_ji| <=
/// tol * max(|a_ij|,|a_ji|, 1)).
[[nodiscard]] bool is_symmetric(const SparseMatrix& a, real_t tol = 0.0);

/// Extracts the lower triangle (row >= col) of a full-stored matrix.
[[nodiscard]] SparseMatrix lower_triangle(const SparseMatrix& a);

/// Expands a lower-triangle-stored symmetric matrix to full storage: column
/// j holds its mirrored upper part (row j of the lower triangle), then its
/// stored lower part. Every value v comes out as 0.0 + v, the bits a
/// TripletBuilder sum gives: a stored −0.0 becomes +0.0, every other value
/// keeps its bits, and callers that build inputs through it (the
/// benchmark's relabeled matrices) see the same bits as with TripletBuilder.
/// The solver paths stay in lower storage and never call it.
[[nodiscard]] SparseMatrix symmetrize_full(const SparseMatrix& lower);

/// Symmetric permutation B = P A Pᵀ where B(perm_inv[i], perm_inv[j]) =
/// A(i, j) and perm maps new index -> old index (perm_inv is its inverse).
/// Input and output are full-stored; values are copied raw.
[[nodiscard]] SparseMatrix permute_symmetric(const SparseMatrix& a,
                                             std::span<const index_t> perm);

/// lower(P A Pᵀ) straight from lower(A), with perm as in
/// permute_symmetric: the lower-storage equivalent of
/// lower_triangle(permute_symmetric(symmetrize_full(lower), perm)), in
/// O(nnz + n) and without a full-storage copy. Values are copied raw (that
/// chain turns a stored −0.0 into +0.0). If `source` is given, it receives
/// for every output entry q the position in `lower` of its value:
/// result.values[q] == lower.values[(*source)[q]].
[[nodiscard]] SparseMatrix permute_lower(const SparseMatrix& lower,
                                         std::span<const index_t> perm,
                                         std::vector<index_t>* source =
                                             nullptr);

/// y = A x for full-stored A.
void spmv(const SparseMatrix& a, std::span<const real_t> x,
          std::span<real_t> y);

/// y = A x where A is symmetric and stored lower-only.
void spmv_symmetric_lower(const SparseMatrix& lower,
                          std::span<const real_t> x, std::span<real_t> y);

/// Infinity norm (max absolute row sum) of a full-stored matrix.
[[nodiscard]] real_t norm_inf(const SparseMatrix& a);

/// ‖A‖∞ of a symmetric matrix stored lower-only, in one pass over the
/// stored entries: bitwise equal to norm_inf(symmetrize_full(lower)),
/// since every row receives its terms in the same order.
[[nodiscard]] real_t norm_inf_symmetric(const SparseMatrix& lower);

/// Frobenius norm.
[[nodiscard]] real_t norm_frobenius(const SparseMatrix& a);

/// Largest absolute stored entry (0 for an empty matrix). Storage-convention
/// agnostic — used to scale the static-pivoting threshold.
[[nodiscard]] real_t max_abs(const SparseMatrix& a);

/// Checks that perm is a permutation of [0, n).
[[nodiscard]] bool is_permutation(std::span<const index_t> perm);

/// Inverse permutation: result[perm[i]] = i.
[[nodiscard]] std::vector<index_t> invert_permutation(
    std::span<const index_t> perm);

/// Dense-vector helpers used throughout the solve and refinement paths.
[[nodiscard]] real_t dot(std::span<const real_t> x, std::span<const real_t> y);
[[nodiscard]] real_t norm2(std::span<const real_t> x);
[[nodiscard]] real_t norm_inf(std::span<const real_t> x);
void axpy(real_t alpha, std::span<const real_t> x, std::span<real_t> y);

}  // namespace parfact
