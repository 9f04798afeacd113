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

// Scatters one segment [beg, end) of a child update-block column into
// `dst` (offset by `row_off` local rows) while accumulating the segment's
// value and magnitude sums. Four independent lanes hide the FP add latency
// behind the scatter's indirect loads — a single running sum would
// serialize the loop at add latency — and the fixed blocking keeps the
// summation order deterministic. The cell updates are the same additions
// in the same ascending-row order as the plain extend-add, so the
// assembled front is bitwise identical to the sum-free path.
inline void scatter_sum(MatrixView dst, index_t row_off, index_t dj,
                        ConstMatrixView cu, index_t cj,
                        std::span<const index_t> crows,
                        const std::vector<index_t>& local_of, index_t beg,
                        index_t end, real_t& sum_out, real_t& abs_out) {
  real_t s[4] = {0.0, 0.0, 0.0, 0.0};
  real_t a[4] = {0.0, 0.0, 0.0, 0.0};
  index_t ci = beg;
  for (; ci + 4 <= end; ci += 4) {
    for (int l = 0; l < 4; ++l) {
      const real_t v = cu.at(ci + l, cj);
      dst.at(local_of[crows[ci + l]] - row_off, dj) += v;
      s[l] += v;
      a[l] += std::abs(v);
    }
  }
  for (; ci < end; ++ci) {
    const real_t v = cu.at(ci, cj);
    dst.at(local_of[crows[ci]] - row_off, dj) += v;
    s[0] += v;
    a[0] += std::abs(v);
  }
  sum_out = (s[0] + s[1]) + (s[2] + s[3]);
  abs_out = (a[0] + a[1]) + (a[2] + a[3]);
}

}  // namespace

void assemble_front(const SymbolicFactor& sym, index_t s,
                    const std::vector<std::vector<real_t>>& update_of,
                    const std::vector<std::vector<index_t>>& children,
                    MatrixView panel, std::vector<real_t>& update_out,
                    FrontScratch& scratch, AssemblySums* sums) {
  const index_t p = sym.sn_cols(s);
  const index_t b = sym.sn_below(s);
  const index_t first = sym.sn_start[s];
  const index_t block_end = sym.sn_start[s + 1];
  const auto rows = sym.below_rows(s);

  PARFACT_CHECK(panel.rows == sym.front_order(s) && panel.cols == p);
  update_out.assign(static_cast<std::size_t>(b) * b, 0.0);
  MatrixView update{update_out.data(), b, b, b};

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

  // Extend-add the children's update blocks (fixed child order keeps the
  // computation deterministic under any execution schedule).
  if (sums == nullptr) {
    for (index_t c : children[s]) {
      const auto crows = sym.below_rows(c);
      const index_t cb = sym.sn_below(c);
      const ConstMatrixView cu{update_of[c].data(), cb, cb, cb};
      for (index_t cj = 0; cj < cb; ++cj) {
        const index_t gj = crows[cj];
        const index_t lj = local_of[gj];
        PARFACT_DCHECK(lj != kNone);
        if (lj < p) {
          // Column lands in the panel part.
          for (index_t ci = cj; ci < cb; ++ci) {
            panel.at(local_of[crows[ci]], lj) += cu.at(ci, cj);
          }
        } else {
          // Column lands in the trailing update part.
          const index_t uj = lj - p;
          for (index_t ci = cj; ci < cb; ++ci) {
            update.at(local_of[crows[ci]] - p, uj) += cu.at(ci, cj);
          }
        }
      }
    }
    return;
  }

  // Fused extend-add: identical scatter, plus each child block's split
  // column sums taken from this very read. Rows before t0 (child rows
  // among this supernode's own columns) land in the panel; rows from t0
  // on land in the update seed. Panel-mapped columns (cj < t0) split at
  // t0; seed-mapped columns lie entirely at or beyond t0.
  sums->per_child.resize(children[s].size());
  std::size_t ic = 0;
  for (index_t c : children[s]) {
    const auto crows = sym.below_rows(c);
    const index_t cb = sym.sn_below(c);
    const ConstMatrixView cu{update_of[c].data(), cb, cb, cb};
    const index_t t0 = static_cast<index_t>(
        std::lower_bound(crows.begin(), crows.end(), block_end) -
        crows.begin());
    std::vector<real_t>& out = sums->per_child[ic++];
    out.assign(static_cast<std::size_t>(cb) * 4, 0.0);
    for (index_t cj = 0; cj < cb; ++cj) {
      const index_t lj = local_of[crows[cj]];
      PARFACT_DCHECK(lj != kNone);
      real_t* o = out.data() + static_cast<std::size_t>(cj) * 4;
      if (lj < p) {
        scatter_sum(panel, 0, lj, cu, cj, crows, local_of, cj, t0, o[0], o[1]);
        scatter_sum(panel, 0, lj, cu, cj, crows, local_of, t0, cb, o[2], o[3]);
      } else {
        scatter_sum(update, p, lj - p, cu, cj, crows, local_of, cj, cb, o[2],
                    o[3]);
      }
    }
  }
}

count_t factor_front_diag(const SymbolicFactor& sym, index_t s,
                          MatrixView panel, FactorKind kind,
                          std::span<real_t> d, const PivotPolicy& pivot) {
  const index_t p = sym.sn_cols(s);
  const index_t first = sym.sn_start[s];
  MatrixView l11 = panel.block(0, 0, p, p);
  PivotBoost boost{pivot.threshold, pivot.value, 0};
  PivotBoost* boost_ptr = pivot.boost ? &boost : nullptr;
  index_t info;
  if (kind == FactorKind::kCholesky) {
    info = potrf_lower(l11, boost_ptr);
  } else {
    info = ldlt_lower(l11,
                      d.subspan(static_cast<std::size_t>(first),
                                static_cast<std::size_t>(p)),
                      boost_ptr);
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
                      index_t first, std::vector<real_t>& m) {
  const index_t b = l21.rows;
  const index_t p = l21.cols;
  m.resize(static_cast<std::size_t>(b) * p);
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
                        const std::vector<std::vector<real_t>>& update_of,
                        const std::vector<std::vector<index_t>>& children,
                        MatrixView panel, std::vector<real_t>& update_out,
                        FrontScratch& scratch, FactorKind kind,
                        std::span<real_t> d, const PivotPolicy& pivot,
                        FrontHooks* hooks) {
  assemble_front(sym, s, update_of, children, panel, update_out, scratch,
                 hooks != nullptr ? hooks->assembly_sums() : nullptr);
  const index_t p = sym.sn_cols(s);
  const index_t b = sym.sn_below(s);
  FrontHooks::Front front{s, panel, MatrixView{update_out.data(), b, b, b},
                          ConstMatrixView{}, 0};
  if (hooks != nullptr && !hooks->at(FrontStage::kAssembled, front)) {
    return kFrontRejected;
  }
  front.boosted = factor_front_diag(sym, s, panel, kind, d, pivot);
  if (hooks != nullptr) (void)hooks->at(FrontStage::kDiagonal, front);

  std::vector<real_t> m;
  if (b > 0) {
    MatrixView l11 = panel.block(0, 0, p, p);
    MatrixView l21 = panel.block(p, 0, b, p);
    // now holds M = A21 L11^-T = L21 D
    trsm_right_lower_trans(l11, l21);
    front.m = l21;
    if (kind == FactorKind::kLdlt) {
      // Keep M, rescale the stored panel to L21 = M D^-1, and subtract
      // L21 Mᵀ = L21 D L21ᵀ from the Schur complement.
      ldlt_scale_panel(l21, d, sym.sn_start[s], m);
      front.m = ConstMatrixView{m.data(), b, p, b};
    }
    if (hooks != nullptr) (void)hooks->at(FrontStage::kPanel, front);
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

std::vector<std::vector<index_t>> build_children(const SymbolicFactor& sym) {
  std::vector<std::vector<index_t>> children(
      static_cast<std::size_t>(sym.n_supernodes));
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    if (sym.sn_parent[s] != kNone) children[sym.sn_parent[s]].push_back(s);
  }
  return children;
}
}  // namespace parfact::detail
