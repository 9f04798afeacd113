#include "dense/microkernel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "dense/kernels.h"
#include "dense/pack.h"
#include "support/error.h"

// Every kernel in this unit is compiled for more than one ISA, from one
// source, where the toolchain supports it (GCC on x86-64):
// - PARFACT_KERNEL_CLONES: the baseline ISA plus AVX2/FMA and AVX-512
//   clones; the dynamic linker picks the best clone for the machine at load
//   time. It covers the kernels whose code does not depend on the register
//   count: the unblocked POTRF and the unpacked fallbacks.
// - The tiled engine and the unblocked TRSM have one instantiation per
//   register file instead: Tile8x6 and 4 TRSM strips as baseline and
//   x86-64-v3 clones (PARFACT_TILE_CLONES), Tile24x8 and 8 strips compiled
//   for x86-64-v4 (PARFACT_AVX512_TILE), chosen by avx512_tile() at each
//   entry.
// The variants run the same per-element operations in the same order; they
// differ only in FMA contraction (a·b ± c rounded once in the v3/v4 code),
// so an AVX2 and an AVX-512 host produce the same bits. TSan builds keep
// only the default path: GCC 12's TSan runtime crashes before main on the
// ifunc resolvers.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define PARFACT_KERNEL_CLONES \
  __attribute__(( \
      target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#define PARFACT_TILE_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3")))
#define PARFACT_AVX512_TILE __attribute__((target("arch=x86-64-v4")))
#define PARFACT_HAS_AVX512_TILE 1
#else
#define PARFACT_KERNEL_CLONES
#define PARFACT_TILE_CLONES
#define PARFACT_AVX512_TILE
#define PARFACT_HAS_AVX512_TILE 0
#endif

namespace parfact::detail {
namespace {

// The accumulators use GCC/Clang generic vectors: one v8d spans 8 rows of a
// tile column, so the compiler keeps the whole tile in SIMD registers
// instead of spilling a scalar array. The generic vector lowers to whatever
// ISA the enclosing function targets (one zmm under x86-64-v4, two ymm under
// x86-64-v3, four xmm in the baseline clone), which is what makes the
// multi-versioning work from a single source. (GCC 12 keeps them on the
// stack in the 8×6 tile's x86-64-v3 clone, which costs that clone most of
// its FMA rate: an open defect, ROADMAP item 1.)
typedef real_t v8d __attribute__((vector_size(8 * sizeof(real_t))));

/// Doubles per vector.
inline constexpr index_t kLanes = 8;
/// Vectors per tile column.
template <class T>
inline constexpr index_t kColVecs = T::kMR / kLanes;

template <class T>
using TileAcc = v8d[T::kNR][kColVecs<T>];

/// acc[j][v] := Σₖ Ap(k, v)·Bp(k, j) over one packed slice of depth kc.
/// Every accumulator starts at zero and takes k in ascending order,
/// whatever the tile.
template <class T>
__attribute__((always_inline)) inline void accumulate(
    index_t kc, const real_t* __restrict ap, const real_t* __restrict bp,
    TileAcc<T>& acc) {
  for (index_t j = 0; j < T::kNR; ++j) {
    for (index_t v = 0; v < kColVecs<T>; ++v) acc[j][v] = v8d{};
  }
  for (index_t k = 0; k < kc; ++k) {
    v8d av[kColVecs<T>];
    for (index_t v = 0; v < kColVecs<T>; ++v) {
      __builtin_memcpy(&av[v],
                       ap + static_cast<std::size_t>(k) * T::kMR + v * kLanes,
                       sizeof(v8d));
    }
    const real_t* b = bp + static_cast<std::size_t>(k) * T::kNR;
    for (index_t j = 0; j < T::kNR; ++j) {
      for (index_t v = 0; v < kColVecs<T>; ++v) acc[j][v] += av[v] * b[j];
    }
  }
}

/// c := c - Ap·Bpᵀ for one full MR×NR tile.
template <class T>
__attribute__((always_inline)) inline void micro_kernel_full(
    index_t kc, const real_t* ap, const real_t* bp, real_t* c, index_t ldc) {
  TileAcc<T> acc;
  accumulate<T>(kc, ap, bp, acc);
  for (index_t j = 0; j < T::kNR; ++j) {
    real_t* cj = c + static_cast<std::size_t>(j) * ldc;
    for (index_t v = 0; v < kColVecs<T>; ++v) {
      v8d cv;
      __builtin_memcpy(&cv, cj + v * kLanes, sizeof cv);
      cv -= acc[j][v];
      __builtin_memcpy(cj + v * kLanes, &cv, sizeof cv);
    }
  }
}

/// Edge-tile variant: accumulates the full register tile (packing
/// zero-pads) but writes back only the leading m×n corner.
template <class T>
__attribute__((always_inline)) inline void micro_kernel_edge(
    index_t kc, const real_t* ap, const real_t* bp, real_t* c, index_t ldc,
    index_t m, index_t n) {
  TileAcc<T> acc;
  accumulate<T>(kc, ap, bp, acc);
  for (index_t j = 0; j < n; ++j) {
    real_t* cj = c + static_cast<std::size_t>(j) * ldc;
    for (index_t i = 0; i < m; ++i) cj[i] -= acc[j][i / kLanes][i % kLanes];
  }
}

/// Diagonal-tile variant for SYRK: writes back only entries with global
/// row0+i >= col0+j (the lower triangle).
template <class T>
__attribute__((always_inline)) inline void micro_kernel_lower(
    index_t kc, const real_t* ap, const real_t* bp, real_t* c, index_t ldc,
    index_t m, index_t n, index_t row0, index_t col0) {
  TileAcc<T> acc;
  accumulate<T>(kc, ap, bp, acc);
  for (index_t j = 0; j < n; ++j) {
    real_t* cj = c + static_cast<std::size_t>(j) * ldc;
    const index_t i0 = std::max<index_t>(0, col0 + j - row0);
    for (index_t i = i0; i < m; ++i) cj[i] -= acc[j][i / kLanes][i % kLanes];
  }
}

/// Per-thread packing buffers, sized once for the fixed cache blocking (kMC
/// and kNC are multiples of every tile's MR and NR). The unblocked TRSM
/// borrows `a` for its packed triangle and row block.
struct PackScratch {
  std::vector<real_t> a = std::vector<real_t>(static_cast<std::size_t>(kMC) *
                                              kKC);
  std::vector<real_t> b = std::vector<real_t>(static_cast<std::size_t>(kKC) *
                                              kNC);
};

PackScratch& pack_scratch() {
  static thread_local PackScratch s;
  return s;
}

/// Packs the [d0, d0+dc) × [k0, k0+kc) slice of a logical D×K operand
/// (stored transposed iff `trans`) into R-row panels at `dst`.
template <index_t R>
__attribute__((always_inline)) inline void pack_operand(
    real_t* dst, ConstMatrixView stored, bool trans, index_t d0, index_t dc,
    index_t k0, index_t kc) {
  if (trans) {
    pack_panels_trans<R>(dst, stored.block(k0, d0, kc, dc));
  } else {
    pack_panels<R>(dst, stored.block(d0, k0, dc, kc));
  }
}

template <class T>
__attribute__((always_inline)) inline void gemm_macro(MatrixView c,
                                                      ConstMatrixView a,
                                                      bool a_trans,
                                                      ConstMatrixView b,
                                                      bool b_trans) {
  constexpr index_t kMR = T::kMR;
  constexpr index_t kNR = T::kNR;
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t kk = a_trans ? a.rows : a.cols;
  PARFACT_DCHECK((a_trans ? a.cols : a.rows) == m);
  PARFACT_DCHECK((b_trans ? b.cols : b.rows) == n);
  PARFACT_DCHECK((b_trans ? b.rows : b.cols) == kk);
  PackScratch& ps = pack_scratch();
  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    for (index_t pc = 0; pc < kk; pc += kKC) {
      const index_t kc = std::min(kKC, kk - pc);
      pack_operand<kNR>(ps.b.data(), b, b_trans, jc, nc, pc, kc);
      for (index_t ic = 0; ic < m; ic += kMC) {
        const index_t mc = std::min(kMC, m - ic);
        pack_operand<kMR>(ps.a.data(), a, a_trans, ic, mc, pc, kc);
        for (index_t jr = 0; jr < nc; jr += kNR) {
          const index_t nr = std::min(kNR, nc - jr);
          const real_t* bp = ps.b.data() + static_cast<std::size_t>(jr) * kc;
          for (index_t ir = 0; ir < mc; ir += kMR) {
            const index_t mr = std::min(kMR, mc - ir);
            const real_t* ap =
                ps.a.data() + static_cast<std::size_t>(ir) * kc;
            real_t* cc = &c.at(ic + ir, jc + jr);
            if (mr == kMR && nr == kNR) {
              micro_kernel_full<T>(kc, ap, bp, cc, c.ld);
            } else {
              micro_kernel_edge<T>(kc, ap, bp, cc, c.ld, mr, nr);
            }
          }
        }
      }
    }
  }
}

template <class T>
__attribute__((always_inline)) inline void syrk_macro(MatrixView c,
                                                      ConstMatrixView a) {
  constexpr index_t kMR = T::kMR;
  constexpr index_t kNR = T::kNR;
  const index_t n = c.rows;
  const index_t kk = a.cols;
  PARFACT_DCHECK(c.cols == n && a.rows == n);
  PackScratch& ps = pack_scratch();
  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    for (index_t pc = 0; pc < kk; pc += kKC) {
      const index_t kc = std::min(kKC, kk - pc);
      pack_panels<kNR>(ps.b.data(), a.block(jc, pc, nc, kc));
      for (index_t ic = 0; ic < n; ic += kMC) {
        const index_t mc = std::min(kMC, n - ic);
        if (ic + mc <= jc) continue;  // block strictly above the diagonal
        pack_panels<kMR>(ps.a.data(), a.block(ic, pc, mc, kc));
        for (index_t jr = 0; jr < nc; jr += kNR) {
          const index_t nr = std::min(kNR, nc - jr);
          const index_t col0 = jc + jr;
          const real_t* bp = ps.b.data() + static_cast<std::size_t>(jr) * kc;
          for (index_t ir = 0; ir < mc; ir += kMR) {
            const index_t mr = std::min(kMR, mc - ir);
            const index_t row0 = ic + ir;
            if (row0 + mr <= col0) continue;  // tile strictly above
            const real_t* ap =
                ps.a.data() + static_cast<std::size_t>(ir) * kc;
            real_t* cc = &c.at(row0, col0);
            if (row0 >= col0 + nr - 1) {
              // Tile fully inside the lower triangle.
              if (mr == kMR && nr == kNR) {
                micro_kernel_full<T>(kc, ap, bp, cc, c.ld);
              } else {
                micro_kernel_edge<T>(kc, ap, bp, cc, c.ld, mr, nr);
              }
            } else {
              micro_kernel_lower<T>(kc, ap, bp, cc, c.ld, mr, nr, row0,
                                    col0);
            }
          }
        }
      }
    }
  }
}

}  // namespace

template <>
PARFACT_TILE_CLONES void gemm_packed_tile<Tile8x6>(MatrixView c,
                                                   ConstMatrixView a,
                                                   bool a_trans,
                                                   ConstMatrixView b,
                                                   bool b_trans) {
  gemm_macro<Tile8x6>(c, a, a_trans, b, b_trans);
}

template <>
PARFACT_AVX512_TILE void gemm_packed_tile<Tile24x8>(MatrixView c,
                                                    ConstMatrixView a,
                                                    bool a_trans,
                                                    ConstMatrixView b,
                                                    bool b_trans) {
  gemm_macro<Tile24x8>(c, a, a_trans, b, b_trans);
}

template <>
PARFACT_TILE_CLONES void syrk_packed_lower_tile<Tile8x6>(MatrixView c,
                                                         ConstMatrixView a) {
  syrk_macro<Tile8x6>(c, a);
}

template <>
PARFACT_AVX512_TILE void syrk_packed_lower_tile<Tile24x8>(MatrixView c,
                                                          ConstMatrixView a) {
  syrk_macro<Tile24x8>(c, a);
}

bool avx512_tile() {
#if PARFACT_HAS_AVX512_TILE
  static const bool v4 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v4") != 0;
  }();
  return v4;
#else
  return false;
#endif
}

void gemm_packed(MatrixView c, ConstMatrixView a, bool a_trans,
                 ConstMatrixView b, bool b_trans) {
  if (avx512_tile()) {
    gemm_packed_tile<Tile24x8>(c, a, a_trans, b, b_trans);
  } else {
    gemm_packed_tile<Tile8x6>(c, a, a_trans, b, b_trans);
  }
}

void syrk_packed_lower(MatrixView c, ConstMatrixView a) {
  if (avx512_tile()) {
    syrk_packed_lower_tile<Tile24x8>(c, a);
  } else {
    syrk_packed_lower_tile<Tile8x6>(c, a);
  }
}

// ---- Triangular kernels and unpacked fallbacks ----------------------------

namespace {

/// `p` rounded up to a 64-byte boundary (the start of a cache line).
real_t* align_line(real_t* p) {
  const auto u = reinterpret_cast<std::uintptr_t>(p);
  return reinterpret_cast<real_t*>((u + 63) & ~std::uintptr_t{63});
}

/// Solves X Lᵀ = B in place for the first S 8-row strips of a packed row
/// block `x` (column j at x + j·Rows). `lt` holds L by rows: row j at
/// lt + j(j+1)/2 is L(j, 0..j-1) followed by 1/L(j,j). Every lane runs
/// x(:,j) := (x(:,j) − Σₖ x(:,k)·L(j,k)) · (1/L(j,j)) with k ascending and
/// zero L(j,k) skipped, whatever S is, so a row's bits do not depend on
/// which strip, or which strip count, it is solved in. The S strips are S
/// independent FMA chains in the column loop.
template <index_t Rows, index_t S>
__attribute__((always_inline)) inline void trsm_strips(
    index_t n, const real_t* __restrict lt, real_t* __restrict x) {
  for (index_t j = 0; j < n; ++j) {
    const real_t* lj = lt + static_cast<std::size_t>(j) * (j + 1) / 2;
    real_t* xj = x + static_cast<std::size_t>(j) * Rows;
    v8d acc[S];
    for (index_t s = 0; s < S; ++s) {
      __builtin_memcpy(&acc[s], xj + s * kLanes, sizeof(v8d));
    }
    for (index_t k = 0; k < j; ++k) {
      const real_t ljk = lj[k];
      if (ljk == 0.0) continue;
      const real_t* xk = x + static_cast<std::size_t>(k) * Rows;
      for (index_t s = 0; s < S; ++s) {
        v8d v;
        __builtin_memcpy(&v, xk + s * kLanes, sizeof v);
        acc[s] -= v * ljk;
      }
    }
    for (index_t s = 0; s < S; ++s) {
      acc[s] *= lj[j];
      __builtin_memcpy(xj + s * kLanes, &acc[s], sizeof(v8d));
    }
  }
}

/// trsm_strips<Rows, s> for a block of s strips, 1 <= s <= S.
template <index_t Rows, index_t S>
__attribute__((always_inline)) inline void trsm_block(
    index_t s, index_t n, const real_t* lt, real_t* x) {
  if constexpr (S > 1) {
    if (s < S) {
      trsm_block<Rows, S - 1>(s, n, lt, x);
      return;
    }
  }
  trsm_strips<Rows, S>(n, lt, x);
}

// Row blocks of Strips·8 rows are copied into the per-thread scratch with
// that leading dimension, so the solve reads cache-line-aligned,
// unit-stride strips whatever b's leading dimension is (a power-of-two ld
// would map a block's columns onto a few cache sets). The last block keeps
// its whole strips and zero-pads its last partial one; the padded lanes
// are computed and dropped.
template <index_t Strips>
__attribute__((always_inline)) inline void trsm_unblocked(ConstMatrixView l,
                                                          MatrixView b) {
  constexpr index_t kRows = Strips * kLanes;
  const index_t n = l.rows;
  const index_t m = b.rows;
  PARFACT_DCHECK(l.cols == n && b.cols == n);
  if (n == 0 || m == 0) return;
  const std::size_t tri = static_cast<std::size_t>(n) * (n + 1) / 2;
  std::vector<real_t>& scratch = pack_scratch().a;
  PARFACT_DCHECK(tri + 8 + static_cast<std::size_t>(kRows) * n <=
                 scratch.size());
  real_t* const lt = scratch.data();
  real_t* const x = align_line(lt + tri);
  for (index_t j = 0; j < n; ++j) {
    real_t* lj = lt + static_cast<std::size_t>(j) * (j + 1) / 2;
    for (index_t k = 0; k < j; ++k) {
      lj[k] = l.data[static_cast<std::size_t>(k) * l.ld + j];
    }
    lj[j] = 1.0 / l.data[static_cast<std::size_t>(j) * l.ld + j];
  }
  const std::size_t ldb = static_cast<std::size_t>(b.ld);
  for (index_t r0 = 0; r0 < m; r0 += kRows) {
    const index_t rows = std::min(kRows, m - r0);
    const index_t strips = (rows + kLanes - 1) / kLanes;
    real_t* const bb = b.data + r0;
    for (index_t j = 0; j < n; ++j) {
      const real_t* src = bb + j * ldb;
      real_t* dst = x + static_cast<std::size_t>(j) * kRows;
      std::memcpy(dst, src, static_cast<std::size_t>(rows) * sizeof(real_t));
      std::fill(dst + rows, dst + strips * kLanes, 0.0);
    }
    trsm_block<kRows, Strips>(strips, n, lt, x);
    for (index_t j = 0; j < n; ++j) {
      std::memcpy(bb + j * ldb, x + static_cast<std::size_t>(j) * kRows,
                  static_cast<std::size_t>(rows) * sizeof(real_t));
    }
  }
}

}  // namespace

template <>
PARFACT_TILE_CLONES void trsm_right_lower_trans_strips<4>(ConstMatrixView l,
                                                          MatrixView b) {
  trsm_unblocked<4>(l, b);
}

template <>
PARFACT_AVX512_TILE void trsm_right_lower_trans_strips<8>(ConstMatrixView l,
                                                          MatrixView b) {
  trsm_unblocked<8>(l, b);
}

void trsm_right_lower_trans_unblocked(ConstMatrixView l, MatrixView b) {
  if (avx512_tile()) {
    trsm_right_lower_trans_strips<8>(l, b);
  } else {
    trsm_right_lower_trans_strips<4>(l, b);
  }
}

PARFACT_KERNEL_CLONES
index_t potrf_lower_unblocked(MatrixView a, PivotBoost* boost) {
  PARFACT_CHECK(a.rows == a.cols);
  const index_t n = a.rows;
  const std::size_t ld = static_cast<std::size_t>(a.ld);
  for (index_t k = 0; k < n; ++k) {
    real_t* __restrict ak = a.data + static_cast<std::size_t>(k) * ld;
    real_t d = ak[k];
    if (!std::isfinite(d)) return k;
    if (d <= 0.0 || (boost != nullptr && d <= boost->threshold)) {
      if (boost == nullptr) return k;
      d = boost->value;
      ++boost->count;
    }
    d = std::sqrt(d);
    ak[k] = d;
    const real_t inv = 1.0 / d;
    for (index_t i = k + 1; i < n; ++i) ak[i] *= inv;
    for (index_t j = k + 1; j < n; ++j) {
      const real_t ljk = ak[j];
      if (ljk == 0.0) continue;
      real_t* __restrict aj = a.data + static_cast<std::size_t>(j) * ld;
      for (index_t i = j; i < n; ++i) aj[i] -= ak[i] * ljk;
    }
  }
  return kNone;
}

PARFACT_KERNEL_CLONES
void gemm_nt_small(MatrixView c, ConstMatrixView a, ConstMatrixView b) {
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t kk = a.cols;
  for (index_t j0 = 0; j0 < n; j0 += kSmallBlock) {
    const index_t j1 = std::min(n, j0 + kSmallBlock);
    for (index_t k0 = 0; k0 < kk; k0 += kSmallBlock) {
      const index_t k1 = std::min(kk, k0 + kSmallBlock);
      for (index_t j = j0; j < j1; ++j) {
        real_t* __restrict cj = c.data + static_cast<std::size_t>(j) * c.ld;
        for (index_t k = k0; k < k1; ++k) {
          const real_t bjk = b.data[static_cast<std::size_t>(k) * b.ld + j];
          if (bjk == 0.0) continue;
          const real_t* __restrict ak =
              a.data + static_cast<std::size_t>(k) * a.ld;
          for (index_t i = 0; i < m; ++i) cj[i] -= ak[i] * bjk;
        }
      }
    }
  }
}

PARFACT_KERNEL_CLONES
void syrk_lower_small(MatrixView c, ConstMatrixView a) {
  const index_t n = c.rows;
  const index_t kk = a.cols;
  for (index_t j0 = 0; j0 < n; j0 += kSmallBlock) {
    const index_t j1 = std::min(n, j0 + kSmallBlock);
    for (index_t k0 = 0; k0 < kk; k0 += kSmallBlock) {
      const index_t k1 = std::min(kk, k0 + kSmallBlock);
      for (index_t j = j0; j < j1; ++j) {
        real_t* __restrict cj = c.data + static_cast<std::size_t>(j) * c.ld;
        for (index_t k = k0; k < k1; ++k) {
          const real_t* __restrict ak =
              a.data + static_cast<std::size_t>(k) * a.ld;
          const real_t ajk = ak[j];
          if (ajk == 0.0) continue;
          for (index_t i = j; i < n; ++i) cj[i] -= ak[i] * ajk;
        }
      }
    }
  }
}

}  // namespace parfact::detail
