#include "baseline/left_looking.h"

#include <algorithm>
#include <vector>

#include "dense/kernels.h"
#include "support/error.h"
#include "support/timer.h"

namespace parfact {

CholeskyFactor left_looking_factor(const SymbolicFactor& sym,
                                   FactorStats* stats, PivotPolicy pivot) {
  WallTimer timer;
  PivotBoost boost{pivot_magnitude(pivot, sym.a)};
  const index_t ns = sym.n_supernodes;
  CholeskyFactor factor(sym);

  // CHOLMOD-style descendant lists: desc_head[s] chains (via desc_next) the
  // already-factorized supernodes whose next unconsumed below-row falls in
  // supernode s's column block. ptr[d] is that row's index within d's
  // below-row list.
  std::vector<index_t> desc_head(static_cast<std::size_t>(ns), kNone);
  std::vector<index_t> desc_next(static_cast<std::size_t>(ns), kNone);
  std::vector<index_t> ptr(static_cast<std::size_t>(ns), 0);

  std::vector<index_t> local_of(static_cast<std::size_t>(sym.n), kNone);
  std::vector<real_t> scratch;  // dense |R| x |C| update buffer

  const SparseMatrix& a = sym.a;

  for (index_t s = 0; s < ns; ++s) {
    const index_t p = sym.sn_cols(s);
    const index_t b = sym.sn_below(s);
    const index_t first = sym.sn_start[s];
    const index_t block_end = sym.sn_start[s + 1];
    const auto rows = sym.below_rows(s);

    MatrixView panel = factor.panel(s);  // zero-initialized

    for (index_t k = 0; k < p; ++k) local_of[first + k] = k;
    for (index_t t = 0; t < b; ++t) local_of[rows[t]] = p + t;

    // Scatter this supernode's original columns.
    for (index_t j = first; j < block_end; ++j) {
      const index_t lj = j - first;
      for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
        panel.at(local_of[a.row_ind[q]], lj) += a.values[q];
      }
    }

    // Pull updates from every descendant queued at this supernode.
    index_t d = desc_head[s];
    while (d != kNone) {
      const index_t next_d = desc_next[d];
      const auto drows = sym.below_rows(d);
      const index_t dsize = sym.sn_below(d);
      const index_t r0 = ptr[d];
      PARFACT_DCHECK(r0 < dsize && sym.sn_of[drows[r0]] == s);
      // Rows of d that land inside this supernode's column block.
      index_t r1 = r0;
      while (r1 < dsize && drows[r1] < block_end) ++r1;

      // Update = L_d(R, :) * L_d(C, :)ᵀ where C = rows [r0, r1) (columns of
      // s) and R = rows [r0, dsize) (rows of s's panel). L_d's below rows
      // start at row offset sn_cols(d) of its panel.
      const ConstMatrixView dpanel = factor.panel(d);
      const index_t pd = sym.sn_cols(d);
      const ConstMatrixView lr =
          dpanel.block(pd + r0, 0, dsize - r0, pd);   // R rows
      const ConstMatrixView lc =
          dpanel.block(pd + r0, 0, r1 - r0, pd);      // C rows
      const index_t nr = dsize - r0;
      const index_t nc = r1 - r0;
      scratch.assign(static_cast<std::size_t>(nr) * nc, 0.0);
      MatrixView u{scratch.data(), nr, nc, nr};
      gemm_nt_update(u, lr, lc);  // u = -L_d(R,:) L_d(C,:)ᵀ

      // Scatter-add (u is negated already) into the panel.
      for (index_t cj = 0; cj < nc; ++cj) {
        const index_t lj = local_of[drows[r0 + cj]];
        PARFACT_DCHECK(lj >= 0 && lj < p);
        for (index_t ri = cj; ri < nr; ++ri) {
          panel.at(local_of[drows[r0 + ri]], lj) += u.at(ri, cj);
        }
      }

      // Advance d to its next target supernode.
      ptr[d] = r1;
      if (r1 < dsize) {
        const index_t t = sym.sn_of[drows[r1]];
        desc_next[d] = desc_head[t];
        desc_head[t] = d;
      }
      d = next_d;
    }
    desc_head[s] = kNone;

    // Eliminate the panel.
    MatrixView l11 = panel.block(0, 0, p, p);
    const index_t info = potrf_lower(l11, &boost);
    PARFACT_CHECK_MSG(info == kNone,
                      "matrix is not positive definite at column "
                          << first + info << " (postordered)");
    if (b > 0) {
      MatrixView l21 = panel.block(p, 0, b, p);
      trsm_right_lower_trans(l11, l21);
      // Queue this supernode at the owner of its first below row.
      desc_next[s] = desc_head[sym.sn_of[rows[0]]];
      desc_head[sym.sn_of[rows[0]]] = s;
    }

    for (index_t k = 0; k < p; ++k) local_of[first + k] = kNone;
    for (index_t t = 0; t < b; ++t) local_of[rows[t]] = kNone;
  }

  if (stats != nullptr) {
    stats->seconds = timer.seconds();
    stats->flops = sym.total_flops;
    stats->peak_update_bytes = 0;  // the left-looking method has no stack
    stats->pivot_perturbations = boost.count;
  }
  return factor;
}

}  // namespace parfact
