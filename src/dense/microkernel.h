// BLIS-style register-tiled dense multiply engine.
//
// All level-3 kernels reduce to one micro-kernel: a kMR×kNR accumulator
// tile held in registers, updated by rank-1 FMAs from packed A/B panels
// (pack.h). Around it, the classic three-level cache blocking: kKC-deep
// slices keep a packed B panel (kKC×kNC) in L2/L3 and a packed A block
// (kMC×kKC) in L1/L2 while the macro-kernel sweeps micro-tiles.
//
// Summation order per C element depends only on the kKC partitioning of the
// k dimension — never on how m or n are partitioned — so splitting C's rows
// across threads reproduces the serial result bitwise. The multifrontal
// intra-front parallel path relies on this.
//
// Everything here computes C := C - op(A)·op(B)ᵀ (the factorization's
// update sign).
//
// The same unit holds the triangular kernels the blocked POTRF and TRSM end
// in and the unpacked fallbacks for updates too small to pack, so that all
// of them share the micro-kernels' runtime ISA dispatch.
#pragma once

#include "dense/matrix_view.h"
#include "support/types.h"

namespace parfact {
struct PivotBoost;
}  // namespace parfact

namespace parfact::detail {

/// Micro-tile rows: one SIMD-friendly column vector of C (8 doubles = two
/// AVX2 or one AVX-512 register).
inline constexpr index_t kMR = 8;
/// Micro-tile columns: 6 keeps the accumulator at 12 AVX2 registers, the
/// sweet spot below the 16-register ceiling.
inline constexpr index_t kNR = 6;
/// Rows of the packed A block (kMC×kKC ≈ 192 KiB, L2-resident).
inline constexpr index_t kMC = 96;
/// Depth of one packed slice of the k dimension.
inline constexpr index_t kKC = 256;
/// Columns of the packed B panel (kKC×kNC ≈ 1.5 MiB, L3-resident).
inline constexpr index_t kNC = 768;
static_assert(kMC % kMR == 0 && kNC % kNR == 0);
/// Blocking factor of the unpacked fallback loops (cache reuse only: every
/// element still sees k in ascending order).
inline constexpr index_t kSmallBlock = 64;

/// c := c - Ap·Bpᵀ for one full kMR×kNR tile. `ap`/`bp` point at packed
/// panels (k-major, kMR- resp. kNR-wide) of depth `kc`.
void micro_kernel_full(index_t kc, const real_t* ap, const real_t* bp,
                       real_t* c, index_t ldc);

/// Edge-tile variant: accumulates the full register tile (packing
/// zero-pads) but writes back only the leading m×n corner.
void micro_kernel_edge(index_t kc, const real_t* ap, const real_t* bp,
                       real_t* c, index_t ldc, index_t m, index_t n);

/// Diagonal-tile variant for SYRK: writes back only entries with global
/// row0+i >= col0+j (the lower triangle).
void micro_kernel_lower(index_t kc, const real_t* ap, const real_t* bp,
                        real_t* c, index_t ldc, index_t m, index_t n,
                        index_t row0, index_t col0);

/// c := c - A·Bᵀ where A is the logical m×k left operand (stored transposed
/// as k×m iff `a_trans`) and B the logical n×k right operand (stored
/// transposed as k×n iff `b_trans`). This one engine serves gemm_nt
/// (false,false), gemm_nn (false,true) and gemm_tn (true,true).
void gemm_packed(MatrixView c, ConstMatrixView a, bool a_trans,
                 ConstMatrixView b, bool b_trans);

/// c := c - a·aᵀ on the lower triangle of c only (triangle-aware tiling:
/// tiles above the diagonal are skipped, tiles crossing it go through the
/// masked micro-kernel, everything else through the full one).
void syrk_packed_lower(MatrixView c, ConstMatrixView a);

/// Unblocked right-looking Cholesky of a small lower triangle (the
/// contract of potrf_lower).
index_t potrf_lower_unblocked(MatrixView a, PivotBoost* boost);

/// Unblocked X Lᵀ = B solve in place of b, for l of order at most 64. Row
/// blocks of four kMR-row strips are solved in registers; a row's result
/// does not depend on how b's rows are split across calls.
void trsm_right_lower_trans_unblocked(ConstMatrixView l, MatrixView b);

/// Unpacked c -= a·bᵀ for shapes where packing would dominate.
void gemm_nt_small(MatrixView c, ConstMatrixView a, ConstMatrixView b);

/// Unpacked c -= a·aᵀ on the lower triangle of c.
void syrk_lower_small(MatrixView c, ConstMatrixView a);

}  // namespace parfact::detail
