// BLIS-style register-tiled dense multiply engine.
//
// All level-3 kernels reduce to one micro-kernel: an MR×NR accumulator tile
// held in registers, updated by rank-1 FMAs from packed A/B panels
// (pack.h). Around it, the classic three-level cache blocking: kKC-deep
// slices keep a packed B panel (kKC×kNC) in L2/L3 and a packed A block
// (kMC×kKC) in L1/L2 while the macro-kernel sweeps micro-tiles.
//
// The tile is fitted to the host's vector registers, as BLIS fits one
// micro-tile per ISA: 24×8 (24 of the 32 zmm registers hold accumulators)
// on x86-64-v4 hosts, 8×6 (12 ymm accumulators under AVX2) everywhere else.
// The process picks it once from the CPU; there is no option.
//
// Summation order per C element depends only on the kKC partitioning of the
// k dimension — never on how m or n are partitioned, and never on the tile:
// every element's accumulator starts at 0.0, takes its FMAs over k
// ascending within one kKC slice, and is then subtracted from C. So
// splitting C's rows across threads reproduces the serial result bitwise
// (the multifrontal intra-front parallel path relies on this), and both
// tiles give the same bits.
//
// Everything here computes C := C - op(A)·op(B)ᵀ (the factorization's
// update sign).
//
// The same unit holds the triangular kernels the blocked POTRF and TRSM end
// in and the unpacked fallbacks for updates too small to pack, so that all
// of them share the runtime ISA dispatch.
#pragma once

#include "dense/matrix_view.h"
#include "support/types.h"

namespace parfact {
struct PivotBoost;
}  // namespace parfact

namespace parfact::detail {

/// A register tile of MR rows (whole 8-double column vectors: one AVX-512
/// or two AVX2 registers each) by NR columns.
template <index_t MR, index_t NR>
struct Tile {
  static constexpr index_t kMR = MR;
  static constexpr index_t kNR = NR;
  static_assert(MR % 8 == 0);
};
/// Baseline and AVX2 hosts: 12 AVX2 accumulators, the sweet spot below the
/// 16-register ceiling.
using Tile8x6 = Tile<8, 6>;
/// x86-64-v4 hosts: 3 zmm × 8 columns, enough independent FMA chains to
/// cover the FMA latency on two ports.
using Tile24x8 = Tile<24, 8>;

/// Rows of the packed A block (kMC×kKC ≈ 192 KiB, L2-resident).
inline constexpr index_t kMC = 96;
/// Depth of one packed slice of the k dimension.
inline constexpr index_t kKC = 256;
/// Columns of the packed B panel (kKC×kNC ≈ 1.5 MiB, L3-resident).
inline constexpr index_t kNC = 768;
static_assert(kMC % Tile8x6::kMR == 0 && kNC % Tile8x6::kNR == 0);
static_assert(kMC % Tile24x8::kMR == 0 && kNC % Tile24x8::kNR == 0);
/// Blocking factor of the unpacked fallback loops (cache reuse only: every
/// element still sees k in ascending order).
inline constexpr index_t kSmallBlock = 64;

/// True when this build carries the x86-64-v4 instantiations and the host
/// runs them: then the engine works on Tile24x8 and the unblocked TRSM on
/// 8 strips. Checked once per process.
[[nodiscard]] bool avx512_tile();

/// c := c - A·Bᵀ where A is the logical m×k left operand (stored transposed
/// as k×m iff `a_trans`) and B the logical n×k right operand (stored
/// transposed as k×n iff `b_trans`). This one engine serves gemm_nt
/// (false,false), gemm_nn (false,true) and gemm_tn (true,true), on the
/// host's tile.
void gemm_packed(MatrixView c, ConstMatrixView a, bool a_trans,
                 ConstMatrixView b, bool b_trans);

/// c := c - a·aᵀ on the lower triangle of c only (triangle-aware tiling:
/// tiles above the diagonal are skipped, tiles crossing it write back only
/// their lower part), on the host's tile.
void syrk_packed_lower(MatrixView c, ConstMatrixView a);

/// Unblocked X Lᵀ = B solve in place of b, for l of order at most 64. Row
/// blocks of 8-row strips (8 strips on x86-64-v4 hosts, 4 elsewhere) are
/// solved in registers; a row's result does not depend on the strip count
/// or on how b's rows are split across calls.
void trsm_right_lower_trans_unblocked(ConstMatrixView l, MatrixView b);

/// The instantiations the three entries above choose between:
/// Tile8x6 / 4 strips (compiled for the baseline ISA and x86-64-v3) and
/// Tile24x8 / 8 strips (compiled for x86-64-v4). Call the latter only when
/// avx512_tile() holds. Exposed so a test can compare them bit for bit.
template <class T>
void gemm_packed_tile(MatrixView c, ConstMatrixView a, bool a_trans,
                      ConstMatrixView b, bool b_trans);
template <class T>
void syrk_packed_lower_tile(MatrixView c, ConstMatrixView a);
template <index_t Strips>
void trsm_right_lower_trans_strips(ConstMatrixView l, MatrixView b);
template <>
void gemm_packed_tile<Tile8x6>(MatrixView, ConstMatrixView, bool,
                               ConstMatrixView, bool);
template <>
void gemm_packed_tile<Tile24x8>(MatrixView, ConstMatrixView, bool,
                                ConstMatrixView, bool);
template <>
void syrk_packed_lower_tile<Tile8x6>(MatrixView, ConstMatrixView);
template <>
void syrk_packed_lower_tile<Tile24x8>(MatrixView, ConstMatrixView);
template <>
void trsm_right_lower_trans_strips<4>(ConstMatrixView, MatrixView);
template <>
void trsm_right_lower_trans_strips<8>(ConstMatrixView, MatrixView);

/// Unblocked right-looking Cholesky of a small lower triangle (the
/// contract of potrf_lower).
index_t potrf_lower_unblocked(MatrixView a, PivotBoost* boost);

/// Unpacked c -= a·bᵀ for shapes where packing would dominate.
void gemm_nt_small(MatrixView c, ConstMatrixView a, ConstMatrixView b);

/// Unpacked c -= a·aᵀ on the lower triangle of c.
void syrk_lower_small(MatrixView c, ConstMatrixView a);

}  // namespace parfact::detail
