// Block partitioning of a dense front for block-cyclic distribution.
//
// The front of order f = p + b (p panel columns to eliminate, b below rows)
// is tiled with edge `nb`, with a forced tile boundary at p so that the
// eliminated panel region is exactly the first `kp` block rows/columns.
// Symmetric tiling (identical row and column boundaries) keeps the diagonal
// blocks square, which POTRF and SYRK need.
#pragma once

#include "support/error.h"
#include "support/types.h"

namespace parfact {

struct FrontBlocking {
  index_t p = 0;   ///< panel (eliminated) columns
  index_t b = 0;   ///< below rows (update region edge)
  index_t nb = 1;  ///< nominal tile edge
  index_t kp = 0;  ///< number of panel block rows/cols
  index_t nB = 0;  ///< total block rows/cols

  static FrontBlocking make(index_t p, index_t b, index_t nb) {
    PARFACT_CHECK(p >= 0 && b >= 0 && nb >= 1);
    FrontBlocking fb;
    fb.p = p;
    fb.b = b;
    fb.nb = nb;
    fb.kp = (p + nb - 1) / nb;
    fb.nB = fb.kp + (b + nb - 1) / nb;
    return fb;
  }

  /// First front row/col covered by block i.
  [[nodiscard]] index_t start(index_t i) const {
    PARFACT_DCHECK(i >= 0 && i <= nB);
    if (i <= kp) return std::min(i * nb, p);
    return p + (i - kp) * nb;
  }
  /// Edge length of block i.
  [[nodiscard]] index_t size(index_t i) const {
    PARFACT_DCHECK(i >= 0 && i < nB);
    if (i < kp) return std::min(p - i * nb, nb);
    return std::min(p + b - start(i), nb);
  }
  /// Block index containing front row/col `r`.
  [[nodiscard]] index_t block_of(index_t r) const {
    PARFACT_DCHECK(r >= 0 && r < p + b);
    if (r < p) return r / nb;
    return kp + (r - p) / nb;
  }
  /// Flops charged for the trailing update of block (ib, jb) by the bk-wide
  /// panel. A Cholesky diagonal block runs syrk_lower_update, which forms
  /// only its lower triangle: rows · (rows + 1) · bk. Every other block, and
  /// an LDLᵀ diagonal block (it runs gemm_nt_update), costs a GEMM's
  /// 2 · rows · cols · bk.
  [[nodiscard]] count_t update_flops(index_t ib, index_t jb, index_t bk,
                                     bool ldlt) const {
    const auto rows = static_cast<count_t>(size(ib));
    if (ib == jb && !ldlt) return rows * (rows + 1) * bk;
    return 2 * rows * size(jb) * bk;
  }
  /// True iff grid row `ri` of a `pr`-row block-cyclic grid owns any block
  /// (ib, kb) below the diagonal, ib > kb.
  [[nodiscard]] bool grid_row_owns_below(index_t kb, int ri, int pr) const {
    for (index_t ib = kb + 1; ib < nB; ++ib) {
      if (static_cast<int>(ib) % pr == ri) return true;
    }
    return false;
  }
};

}  // namespace parfact
