// Dense linear-algebra kernels for frontal matrices.
//
// The multifrontal factorization spends essentially all numeric time here,
// in the four Cholesky building blocks (POTRF / TRSM / SYRK / GEMM) plus the
// solve-phase TRSMs. All kernels are written from scratch (the paper used a
// vendor BLAS; see DESIGN.md substitutions). The level-3 kernels run on the
// packed register-tiled engine in microkernel.h; tiny or vector-shaped
// problems fall back to the unpacked loops where packing would dominate.
//
// Update kernels follow the factorization's sign convention: they *subtract*
// the product (C := C - op(A) op(B)).
//
// Row splits: the engine's summation order per element does not depend on
// how C's rows are partitioned, so TRSM and GEMM on disjoint row blocks —
// and SYRK through syrk_lower_update_slab — reproduce the one-call result
// bit for bit. The task-DAG factorization (mf/dag_factor.h) splits its
// large fronts that way.
#pragma once

#include <span>
#include <vector>

#include "dense/matrix_view.h"
#include "support/types.h"

namespace parfact {

/// Static-pivoting hook for POTRF / LDLᵀ. When non-null, a pivot whose
/// magnitude is at or below `threshold` is replaced by `value` (Cholesky) or
/// by sign-preserving ±`value` (LDLᵀ) instead of aborting the factorization;
/// each replacement increments `count`. Non-finite pivots are never boosted
/// — they always abort. The SuperLU_DIST-style contract is
/// threshold = value = sqrt(eps) * ||A||, with accuracy recovered by
/// iterative refinement (see DESIGN.md "Robustness & failure model").
struct PivotBoost {
  real_t threshold = 0.0;
  real_t value = 0.0;
  count_t count = 0;
};

/// Cholesky of the lower triangle of `a` in place (a := L with A = L Lᵀ).
/// Returns kNone on success, or the (0-based) column index of the first
/// non-positive pivot (matrix not SPD), leaving `a` partially overwritten.
/// With `boost`, tiny/non-positive (but finite) pivots are replaced and
/// counted instead of aborting.
index_t potrf_lower(MatrixView a, PivotBoost* boost = nullptr);

/// LDLᵀ of the lower triangle of `a` in place, without pivoting: a := L
/// (unit diagonal stored as 1.0) and d := diag(D). Suitable for symmetric
/// quasi-definite / strongly factorizable matrices; returns kNone on
/// success or the column of the first zero pivot. With `boost`, tiny
/// (but finite) pivots are replaced sign-preservingly and counted.
index_t ldlt_lower(MatrixView a, std::span<real_t> d,
                   PivotBoost* boost = nullptr);

/// b := b * l⁻ᵀ where l is lower triangular (unit diagonal NOT assumed).
/// This is the panel update below a factorized diagonal block.
void trsm_right_lower_trans(ConstMatrixView l, MatrixView b);

/// x := l⁻¹ x (forward substitution, multiple right-hand sides).
void trsm_left_lower(ConstMatrixView l, MatrixView x);

/// x := l⁻ᵀ x (backward substitution, multiple right-hand sides).
void trsm_left_lower_trans(ConstMatrixView l, MatrixView x);

/// c := c - a * aᵀ, updating the lower triangle of c only. c must be square
/// with c.rows == a.rows.
void syrk_lower_update(MatrixView c, ConstMatrixView a);

/// True when syrk_lower_update(c, a) with c of order `n` and a with `k`
/// columns runs on the packed engine and may therefore be split into row
/// slabs without changing the result bitwise. When false the update must
/// run as a single serial call (the unpacked fallback's summation order is
/// not row-partition-invariant).
[[nodiscard]] bool syrk_splittable(index_t n, index_t k);

/// Flop-balanced ascending row bounds (size slabs+1, bound[0] = 0,
/// bound[slabs] = n) for splitting a splittable syrk_lower_update into row
/// slabs: a square-root partition that balances the slabs' flops.
[[nodiscard]] std::vector<index_t> syrk_slab_bounds(index_t n, index_t slabs);

/// One row slab [r0, r1) of a splittable syrk_lower_update(c, a): the
/// rectangle C(r0:r1, 0:r0) plus the diagonal triangle C(r0:r1, r0:r1),
/// both on the packed engine. Running every slab of syrk_slab_bounds — in
/// any order or concurrently; the writes are disjoint — produces exactly
/// the serial call's result bit for bit. The task-DAG factorization's
/// Cholesky update tasks are these slabs.
void syrk_lower_update_slab(MatrixView c, ConstMatrixView a, index_t r0,
                            index_t r1);

/// c := c - a * bᵀ. Dimensions: c is (a.rows x b.rows), a.cols == b.cols.
void gemm_nt_update(MatrixView c, ConstMatrixView a, ConstMatrixView b);

/// c := c - a * b. Dimensions: c is (a.rows x b.cols), a.cols == b.rows.
void gemm_nn_update(MatrixView c, ConstMatrixView a, ConstMatrixView b);

/// c := c - aᵀ * b. Dimensions: c is (a.cols x b.cols), a.rows == b.rows.
void gemm_tn_update(MatrixView c, ConstMatrixView a, ConstMatrixView b);

/// Measured throughput (flop/s) of a representative gemm_nt_update of order
/// `m`; used to calibrate the virtual machine model (experiment K0). The
/// repetition count is calibrated from a timed probe call so the total
/// measurement lasts ~50 ms on slow and fast machines alike.
double measure_gemm_rate(index_t m);

}  // namespace parfact
