#include "mf/front_kernel.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "dense/kernels.h"
#include "support/error.h"
#include "support/status.h"

namespace parfact::detail {
namespace {

// Adds rows [beg, end) of one child update-block column `src` into the
// front column `dst`: child row ci lands in local row local_of[crows[ci]]
// - off, one addition per cell in ascending child row. With kSums it also
// returns the segment's sum, taken from the same read. Four independent
// lanes hide the FP add latency behind the scatter's indirect loads — a
// single running sum would serialize the loop at add latency — and the
// fixed blocking keeps the summation order deterministic.
template <bool kSums>
inline real_t scatter_column(real_t* dst, index_t off, index_t rows,
                             const real_t* src, const index_t* crows,
                             const index_t* local_of, index_t beg,
                             index_t end) {
  real_t sum[4] = {0.0, 0.0, 0.0, 0.0};
  const auto add = [&](index_t ci, int lane) {
    const real_t v = src[ci];
    const index_t r = local_of[crows[ci]] - off;
    PARFACT_DCHECK(r >= 0 && r < rows);
    dst[r] += v;
    if constexpr (kSums) sum[lane] += v;
  };
  index_t ci = beg;
  for (; ci + 4 <= end; ci += 4) {
    for (int l = 0; l < 4; ++l) add(ci + l, l);
  }
  for (; ci < end; ++ci) add(ci, 0);
  return (sum[0] + sum[1]) + (sum[2] + sum[3]);
}

// The extend-add of child c's update block `block` into the front whose
// row map is `local_of`: panel-mapped columns go into `panel`, the others
// into the update seed `update`. Rows before t0 (child rows among the
// front's own columns) land in the panel's diagonal block; a panel-mapped
// column (cj < t0) splits there, an update-mapped one lies wholly at or
// beyond t0. With kSums `out` receives the block's split column sums (see
// AssemblySums); the cells get the same additions either way.
template <bool kSums>
void extend_add(const SymbolicFactor& sym, index_t c, const real_t* block,
                const index_t* local_of, index_t block_end, MatrixView panel,
                MatrixView update, std::vector<real_t>* out) {
  const auto crows = sym.below_rows(c);
  const index_t cb = sym.sn_below(c);
  const index_t p = panel.cols;
  const index_t t0 = static_cast<index_t>(
      std::lower_bound(crows.begin(), crows.end(), block_end) -
      crows.begin());
  if constexpr (kSums) out->assign(static_cast<std::size_t>(cb) * 2, 0.0);
  for (index_t cj = 0; cj < cb; ++cj) {
    const real_t* src = block + static_cast<std::size_t>(cj) * cb;
    const index_t lj = local_of[crows[cj]];
    PARFACT_DCHECK(lj != kNone);
    real_t lo = 0.0;
    real_t hi = 0.0;
    if (lj < p) {
      real_t* dst = panel.data + static_cast<std::size_t>(lj) * panel.ld;
      lo = scatter_column<kSums>(dst, 0, panel.rows, src, crows.data(),
                                 local_of, cj, t0);
      hi = scatter_column<kSums>(dst, 0, panel.rows, src, crows.data(),
                                 local_of, t0, cb);
    } else {
      real_t* dst = update.data + static_cast<std::size_t>(lj - p) * update.ld;
      hi = scatter_column<kSums>(dst, p, update.rows, src, crows.data(),
                                 local_of, cj, cb);
    }
    if constexpr (kSums) {
      (*out)[static_cast<std::size_t>(cj) * 2] = lo;
      (*out)[static_cast<std::size_t>(cj) * 2 + 1] = hi;
    }
  }
}

}  // namespace

void assemble_front(const SymbolicFactor& sym, index_t s,
                    std::span<const real_t* const> update_of, MatrixView panel,
                    std::span<real_t> update_out, FrontScratch& scratch,
                    FactorKind kind, AssemblySums* sums) {
  const index_t p = sym.sn_cols(s);
  const index_t b = sym.sn_below(s);
  const index_t first = sym.sn_start[s];
  const index_t block_end = sym.sn_start[s + 1];
  const auto rows = sym.below_rows(s);

  PARFACT_CHECK(panel.rows == sym.front_order(s) && panel.cols == p);
  PARFACT_CHECK(update_out.size() == static_cast<std::size_t>(b) * b);
  MatrixView update{update_out.data(), b, b, b};
  // Extend-add, SYRK and the ABFT hooks touch nothing above the diagonal;
  // the LDLᵀ update is a GEMM, which reads the whole block.
  for (index_t j = 0; j < b; ++j) {
    const index_t i0 = kind == FactorKind::kCholesky ? j : 0;
    std::fill_n(&update.at(i0, j), b - i0, 0.0);
  }

  auto& local_of = scratch.local_of;
  for (index_t k = 0; k < p; ++k) local_of[first + k] = k;
  for (index_t t = 0; t < b; ++t) local_of[rows[t]] = p + t;

  // Reset the scratch map on *every* exit path so pooled scratch objects
  // stay reusable after a failed front.
  struct ScratchGuard {
    std::vector<index_t>& map;
    index_t p, b, first;
    std::span<const index_t> rows;
    ~ScratchGuard() {
      for (index_t k = 0; k < p; ++k) map[first + k] = kNone;
      for (index_t t = 0; t < b; ++t) map[rows[t]] = kNone;
    }
  } guard{local_of, p, b, first, rows};

  // Scatter the original matrix columns of this supernode.
  const SparseMatrix& a = sym.a;
  for (index_t j = first; j < block_end; ++j) {
    const index_t lj = j - first;
    for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
      const index_t li = local_of[a.row_ind[q]];
      PARFACT_DCHECK(li != kNone);
      panel.at(li, lj) += a.values[q];
    }
  }

  // Extend-add the children's update blocks in the tree's child order, so
  // every cell sums the same terms in the same order under any schedule.
  const auto children = sym.children(s);
  if (sums != nullptr) sums->per_child.resize(children.size());
  for (std::size_t i = 0; i < children.size(); ++i) {
    const index_t c = children[i];
    if (sums == nullptr) {
      extend_add<false>(sym, c, update_of[c], local_of.data(), block_end,
                        panel, update, nullptr);
    } else {
      extend_add<true>(sym, c, update_of[c], local_of.data(), block_end,
                       panel, update, &sums->per_child[i]);
    }
  }
}

count_t factor_front_diag(const SymbolicFactor& sym, index_t s,
                          MatrixView panel, FactorKind kind,
                          std::span<real_t> d, real_t pivot_magnitude) {
  const index_t p = sym.sn_cols(s);
  const index_t first = sym.sn_start[s];
  MatrixView l11 = panel.block(0, 0, p, p);
  PivotBoost boost{pivot_magnitude};
  index_t info;
  if (kind == FactorKind::kCholesky) {
    info = potrf_lower(l11, &boost);
  } else {
    info = ldlt_lower(l11,
                      d.subspan(static_cast<std::size_t>(first),
                                static_cast<std::size_t>(p)),
                      &boost);
  }
  if (info != kNone) {
    std::ostringstream os;
    os << (kind == FactorKind::kCholesky ? "matrix is not positive definite"
                                         : "bad LDLT pivot")
       << " at column " << first + info << " (postordered), supernode " << s
       << " (front order " << sym.front_order(s) << ", " << p << " columns)";
    throw StatusError(Status::failure(StatusCode::kBreakdown, os.str(), s));
  }
  return boost.count;
}

void ldlt_scale_panel(MatrixView l21, std::span<const real_t> d,
                      index_t first, std::span<real_t> m) {
  const index_t b = l21.rows;
  const index_t p = l21.cols;
  PARFACT_CHECK(m.size() >= static_cast<std::size_t>(b) * p);
  for (index_t k = 0; k < p; ++k) {
    const real_t dk = d[static_cast<std::size_t>(first + k)];
    real_t* col = &l21.at(0, k);
    real_t* mk = m.data() + static_cast<std::size_t>(k) * b;
    for (index_t i = 0; i < b; ++i) {
      mk[i] = col[i];
      col[i] /= dk;
    }
  }
}

count_t eliminate_front(const SymbolicFactor& sym, index_t s,
                        std::span<const real_t* const> update_of,
                        MatrixView panel, std::span<real_t> update_out,
                        std::span<real_t> m, FrontScratch& scratch,
                        FactorKind kind, std::span<real_t> d,
                        real_t pivot_magnitude, FrontHooks* hooks) {
  assemble_front(sym, s, update_of, panel, update_out, scratch, kind,
                 hooks != nullptr ? hooks->assembly_sums() : nullptr);
  const index_t p = sym.sn_cols(s);
  const index_t b = sym.sn_below(s);
  FrontHooks::Front front{s, panel, MatrixView{update_out.data(), b, b, b},
                          ConstMatrixView{}, 0};
  if (hooks != nullptr && !hooks->at(FrontStage::kAssembled, front)) {
    return kFrontRejected;
  }
  front.boosted = factor_front_diag(sym, s, panel, kind, d, pivot_magnitude);
  if (hooks != nullptr) (void)hooks->at(FrontStage::kDiagonal, front);

  const MatrixView l21 = panel.block(p, 0, b, p);
  if (b > 0) {
    // now holds M = A21 L11^-T = L21 D
    trsm_right_lower_trans(panel.block(0, 0, p, p), l21);
    front.m = l21;
    if (kind == FactorKind::kLdlt) {
      // Keep M, rescale the stored panel to L21 = M D^-1, and subtract
      // L21 Mᵀ = L21 D L21ᵀ from the Schur complement.
      ldlt_scale_panel(l21, d, sym.sn_start[s], m);
      front.m = ConstMatrixView{m.data(), b, p, b};
    }
  }
  if (hooks != nullptr && !hooks->at(FrontStage::kPanel, front)) {
    return kFrontRejected;
  }
  if (b > 0) {
    if (kind == FactorKind::kCholesky) {
      syrk_lower_update(front.update, l21);
    } else {
      gemm_nt_update(front.update, l21, front.m);
    }
  }
  if (hooks != nullptr && !hooks->at(FrontStage::kUpdated, front)) {
    return kFrontRejected;
  }
  return front.boosted;
}

}  // namespace parfact::detail
