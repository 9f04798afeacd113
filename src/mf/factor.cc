#include "mf/factor.h"

#include <algorithm>

#include "support/error.h"

namespace parfact {

CholeskyFactor::CholeskyFactor(const SymbolicFactor& sym) : sym_(&sym) {
  offset_.resize(static_cast<std::size_t>(sym.n_supernodes) + 1);
  offset_[0] = 0;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const std::size_t panel_size =
        static_cast<std::size_t>(sym.front_order(s)) * sym.sn_cols(s);
    offset_[s + 1] = offset_[s] + panel_size;
  }
  values_.assign(offset_.back(), 0.0);
}

MatrixView CholeskyFactor::panel(index_t s) {
  const index_t f = sym_->front_order(s);
  return {values_.data() + offset_[s], f, sym_->sn_cols(s), f};
}

ConstMatrixView CholeskyFactor::panel(index_t s) const {
  const index_t f = sym_->front_order(s);
  return {values_.data() + offset_[s], f, sym_->sn_cols(s), f};
}

std::span<real_t> CholeskyFactor::allocate_diag() {
  d_.assign(static_cast<std::size_t>(sym_->n), 0.0);
  return d_;
}

real_t CholeskyFactor::entry(index_t i, index_t j) const {
  PARFACT_CHECK(i >= j && j >= 0 && i < sym_->n);
  const index_t s = sym_->sn_of[j];
  const index_t local_col = j - sym_->sn_start[s];
  const index_t block_end = sym_->sn_start[s + 1];
  index_t local_row;
  if (i < block_end) {
    local_row = i - sym_->sn_start[s];
  } else {
    const auto rows = sym_->below_rows(s);
    const auto it = std::lower_bound(rows.begin(), rows.end(), i);
    if (it == rows.end() || *it != i) return 0.0;
    local_row = sym_->sn_cols(s) + static_cast<index_t>(it - rows.begin());
  }
  return panel(s).at(local_row, local_col);
}

}  // namespace parfact
