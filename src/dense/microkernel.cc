#include "dense/microkernel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "dense/kernels.h"
#include "dense/pack.h"
#include "support/error.h"

namespace parfact::detail {
namespace {

// The accumulator uses GCC/Clang generic vectors: one v8d spans the kMR
// rows of the tile, so the compiler keeps the whole kMR×kNR tile in SIMD
// registers instead of spilling a scalar array. The generic vector lowers
// to whatever ISA the enclosing function targets, which is what makes the
// multi-versioning below work from a single source.
typedef real_t v8d __attribute__((vector_size(kMR * sizeof(real_t))));
static_assert(kMR * sizeof(real_t) == 64);

// Compile every kernel in this unit — the micro-kernels, the triangular
// solves and factorizations the blocked POTRF/TRSM end in, and the unpacked
// fallbacks — for the baseline ISA plus AVX2/FMA and AVX-512 where the
// toolchain supports function multi-versioning; the dynamic linker picks
// the best clone for the machine at load time. This keeps the default
// (portable) build within ~peak of a -march=native build. The clones run
// the same per-element operations in the same order; they differ only in
// FMA contraction (a·b ± c rounded once in the v3/v4 clones). TSan builds
// keep only the default clone: GCC 12's TSan runtime crashes before main on
// the ifunc resolvers.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define PARFACT_KERNEL_CLONES \
  __attribute__(( \
      target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define PARFACT_KERNEL_CLONES
#endif

/// Rank-1 update loop shared by all three micro-kernels. Must inline into
/// its (multi-versioned) callers so each clone vectorizes it for its ISA.
__attribute__((always_inline)) inline void accumulate(
    index_t kc, const real_t* __restrict ap, const real_t* __restrict bp,
    v8d acc[kNR]) {
  for (index_t k = 0; k < kc; ++k) {
    v8d av;
    __builtin_memcpy(&av, ap + static_cast<std::size_t>(k) * kMR, sizeof av);
    const real_t* b = bp + static_cast<std::size_t>(k) * kNR;
    for (index_t j = 0; j < kNR; ++j) acc[j] += av * b[j];
  }
}

}  // namespace

PARFACT_KERNEL_CLONES
void micro_kernel_full(index_t kc, const real_t* ap, const real_t* bp,
                       real_t* c, index_t ldc) {
  v8d acc[kNR] = {};
  accumulate(kc, ap, bp, acc);
  for (index_t j = 0; j < kNR; ++j) {
    real_t* cj = c + static_cast<std::size_t>(j) * ldc;
    for (index_t i = 0; i < kMR; ++i) cj[i] -= acc[j][i];
  }
}

PARFACT_KERNEL_CLONES
void micro_kernel_edge(index_t kc, const real_t* ap, const real_t* bp,
                       real_t* c, index_t ldc, index_t m, index_t n) {
  v8d acc[kNR] = {};
  accumulate(kc, ap, bp, acc);
  for (index_t j = 0; j < n; ++j) {
    real_t* cj = c + static_cast<std::size_t>(j) * ldc;
    for (index_t i = 0; i < m; ++i) cj[i] -= acc[j][i];
  }
}

PARFACT_KERNEL_CLONES
void micro_kernel_lower(index_t kc, const real_t* ap, const real_t* bp,
                        real_t* c, index_t ldc, index_t m, index_t n,
                        index_t row0, index_t col0) {
  v8d acc[kNR] = {};
  accumulate(kc, ap, bp, acc);
  for (index_t j = 0; j < n; ++j) {
    real_t* cj = c + static_cast<std::size_t>(j) * ldc;
    const index_t i0 = std::max<index_t>(0, col0 + j - row0);
    for (index_t i = i0; i < m; ++i) cj[i] -= acc[j][i];
  }
}

namespace {

/// Per-thread packing buffers, sized once for the fixed cache blocking. The
/// unblocked TRSM borrows `a` for its packed triangle and row block.
struct PackScratch {
  std::vector<real_t> a;
  std::vector<real_t> b;
  PackScratch()
      : a(static_cast<std::size_t>(kMC) * kKC),
        b(static_cast<std::size_t>(kKC) * kNC) {}
};

PackScratch& pack_scratch() {
  static thread_local PackScratch s;
  return s;
}

/// Packs the [d0, d0+dc) × [k0, k0+kc) slice of a logical D×K operand
/// (stored transposed iff `trans`) into `r`-row panels at `dst`.
void pack_operand(real_t* dst, ConstMatrixView stored, bool trans, index_t d0,
                  index_t dc, index_t k0, index_t kc, index_t r) {
  if (trans) {
    pack_panels_trans(dst, stored.block(k0, d0, kc, dc), r);
  } else {
    pack_panels(dst, stored.block(d0, k0, dc, kc), r);
  }
}

}  // namespace

void gemm_packed(MatrixView c, ConstMatrixView a, bool a_trans,
                 ConstMatrixView b, bool b_trans) {
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
      pack_operand(ps.b.data(), b, b_trans, jc, nc, pc, kc, kNR);
      for (index_t ic = 0; ic < m; ic += kMC) {
        const index_t mc = std::min(kMC, m - ic);
        pack_operand(ps.a.data(), a, a_trans, ic, mc, pc, kc, kMR);
        for (index_t jr = 0; jr < nc; jr += kNR) {
          const index_t nr = std::min(kNR, nc - jr);
          const real_t* bp = ps.b.data() + static_cast<std::size_t>(jr) * kc;
          for (index_t ir = 0; ir < mc; ir += kMR) {
            const index_t mr = std::min(kMR, mc - ir);
            const real_t* ap =
                ps.a.data() + static_cast<std::size_t>(ir) * kc;
            real_t* cc = &c.at(ic + ir, jc + jr);
            if (mr == kMR && nr == kNR) {
              micro_kernel_full(kc, ap, bp, cc, c.ld);
            } else {
              micro_kernel_edge(kc, ap, bp, cc, c.ld, mr, nr);
            }
          }
        }
      }
    }
  }
}

void syrk_packed_lower(MatrixView c, ConstMatrixView a) {
  const index_t n = c.rows;
  const index_t kk = a.cols;
  PARFACT_DCHECK(c.cols == n && a.rows == n);
  PackScratch& ps = pack_scratch();
  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    for (index_t pc = 0; pc < kk; pc += kKC) {
      const index_t kc = std::min(kKC, kk - pc);
      pack_panels(ps.b.data(), a.block(jc, pc, nc, kc), kNR);
      for (index_t ic = 0; ic < n; ic += kMC) {
        const index_t mc = std::min(kMC, n - ic);
        if (ic + mc <= jc) continue;  // block strictly above the diagonal
        pack_panels(ps.a.data(), a.block(ic, pc, mc, kc), kMR);
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
                micro_kernel_full(kc, ap, bp, cc, c.ld);
              } else {
                micro_kernel_edge(kc, ap, bp, cc, c.ld, mr, nr);
              }
            } else {
              micro_kernel_lower(kc, ap, bp, cc, c.ld, mr, nr, row0, col0);
            }
          }
        }
      }
    }
  }
}

// ---- Triangular kernels and unpacked fallbacks ----------------------------

namespace {

/// Rows of one TRSM row block: four kMR-row strips solved side by side, so
/// four independent FMA chains overlap in the column loop.
constexpr index_t kTrsmStrips = 4;
constexpr index_t kTrsmRows = kTrsmStrips * kMR;

/// Solves X Lᵀ = B in place for the first S kMR-row strips of a packed row
/// block `x` (column j at x + j·kTrsmRows). `lt` holds L by rows: row j at
/// lt + j(j+1)/2 is L(j, 0..j-1) followed by 1/L(j,j). Every lane runs
/// x(:,j) := (x(:,j) − Σₖ x(:,k)·L(j,k)) · (1/L(j,j)) with k ascending and
/// zero L(j,k) skipped, whatever S is, so a row's bits do not depend on
/// which strip, or which strip count, it is solved in.
template <index_t S>
__attribute__((always_inline)) inline void trsm_strips(
    index_t n, const real_t* __restrict lt, real_t* __restrict x) {
  for (index_t j = 0; j < n; ++j) {
    const real_t* lj = lt + static_cast<std::size_t>(j) * (j + 1) / 2;
    real_t* xj = x + static_cast<std::size_t>(j) * kTrsmRows;
    v8d acc[S];
    for (index_t s = 0; s < S; ++s) {
      __builtin_memcpy(&acc[s], xj + s * kMR, sizeof(v8d));
    }
    for (index_t k = 0; k < j; ++k) {
      const real_t ljk = lj[k];
      if (ljk == 0.0) continue;
      const real_t* xk = x + static_cast<std::size_t>(k) * kTrsmRows;
      for (index_t s = 0; s < S; ++s) {
        v8d v;
        __builtin_memcpy(&v, xk + s * kMR, sizeof v);
        acc[s] -= v * ljk;
      }
    }
    for (index_t s = 0; s < S; ++s) {
      acc[s] *= lj[j];
      __builtin_memcpy(xj + s * kMR, &acc[s], sizeof(v8d));
    }
  }
}

/// `p` rounded up to a 64-byte boundary (the start of a cache line).
real_t* align_line(real_t* p) {
  const auto u = reinterpret_cast<std::uintptr_t>(p);
  return reinterpret_cast<real_t*>((u + 63) & ~std::uintptr_t{63});
}

}  // namespace

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

// Row blocks of kTrsmRows rows are copied into the per-thread scratch with
// leading dimension kTrsmRows, so the solve reads cache-line-aligned,
// unit-stride strips whatever b's leading dimension is (a power-of-two ld
// would map a block's columns onto a few cache sets). The last block keeps
// its whole strips and zero-pads its last partial one; the padded lanes are
// computed and dropped.
PARFACT_KERNEL_CLONES
void trsm_right_lower_trans_unblocked(ConstMatrixView l, MatrixView b) {
  const index_t n = l.rows;
  const index_t m = b.rows;
  PARFACT_DCHECK(l.cols == n && b.cols == n);
  if (n == 0 || m == 0) return;
  const std::size_t tri = static_cast<std::size_t>(n) * (n + 1) / 2;
  std::vector<real_t>& scratch = pack_scratch().a;
  PARFACT_DCHECK(tri + 8 + static_cast<std::size_t>(kTrsmRows) * n <=
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
  for (index_t r0 = 0; r0 < m; r0 += kTrsmRows) {
    const index_t rows = std::min(kTrsmRows, m - r0);
    const index_t strips = (rows + kMR - 1) / kMR;
    real_t* const bb = b.data + r0;
    for (index_t j = 0; j < n; ++j) {
      const real_t* src = bb + j * ldb;
      real_t* dst = x + static_cast<std::size_t>(j) * kTrsmRows;
      std::memcpy(dst, src, static_cast<std::size_t>(rows) * sizeof(real_t));
      std::fill(dst + rows, dst + strips * kMR, 0.0);
    }
    switch (strips) {
      case 4: trsm_strips<4>(n, lt, x); break;
      case 3: trsm_strips<3>(n, lt, x); break;
      case 2: trsm_strips<2>(n, lt, x); break;
      default: trsm_strips<1>(n, lt, x); break;
    }
    for (index_t j = 0; j < n; ++j) {
      std::memcpy(bb + j * ldb, x + static_cast<std::size_t>(j) * kTrsmRows,
                  static_cast<std::size_t>(rows) * sizeof(real_t));
    }
  }
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
