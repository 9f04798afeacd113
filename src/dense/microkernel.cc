#include "dense/microkernel.h"

#include <algorithm>
#include <cstring>
#include <vector>

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

// Compile the micro-kernels for the baseline ISA plus AVX2/FMA and AVX-512
// where the toolchain supports function multi-versioning; the dynamic
// linker picks the best clone for the machine at load time. This keeps the
// default (portable) build within ~peak of a -march=native build. TSan
// builds keep only the default clone: GCC 12's TSan runtime crashes before
// main on the ifunc resolvers.
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

/// Per-thread packing buffers, sized once for the fixed cache blocking.
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

}  // namespace parfact::detail
