// Non-owning column-major dense matrix views.
//
// Frontal matrices live in large flat buffers — factor panels, the serial
// driver's update-block arena (the multifrontal stack, used from both
// ends), per-rank distributed blocks — and every dense kernel operates on
// views into them. Column-major with leading dimension `ld`, matching the
// BLAS/LAPACK convention the paper's solver builds on.
#pragma once

#include <algorithm>

#include "support/error.h"
#include "support/types.h"

namespace parfact {

struct ConstMatrixView {
  const real_t* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  [[nodiscard]] const real_t& at(index_t i, index_t j) const {
    PARFACT_DCHECK(i >= 0 && i < rows && j >= 0 && j < cols);
    return data[static_cast<std::size_t>(j) * ld + i];
  }
  [[nodiscard]] ConstMatrixView block(index_t r0, index_t c0, index_t nr,
                                      index_t nc) const {
    PARFACT_DCHECK(r0 >= 0 && c0 >= 0 && r0 + nr <= rows && c0 + nc <= cols);
    return {data + static_cast<std::size_t>(c0) * ld + r0, nr, nc, ld};
  }
};

struct MatrixView {
  real_t* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  [[nodiscard]] real_t& at(index_t i, index_t j) const {
    PARFACT_DCHECK(i >= 0 && i < rows && j >= 0 && j < cols);
    return data[static_cast<std::size_t>(j) * ld + i];
  }
  [[nodiscard]] MatrixView block(index_t r0, index_t c0, index_t nr,
                                 index_t nc) const {
    PARFACT_DCHECK(r0 >= 0 && c0 >= 0 && r0 + nr <= rows && c0 + nc <= cols);
    return {data + static_cast<std::size_t>(c0) * ld + r0, nr, nc, ld};
  }
  // NOLINTNEXTLINE(google-explicit-constructor): views decay like pointers.
  operator ConstMatrixView() const { return {data, rows, cols, ld}; }

  void fill(real_t v) const {
    for (index_t j = 0; j < cols; ++j) {
      std::fill_n(data + static_cast<std::size_t>(j) * ld, rows, v);
    }
  }
};

}  // namespace parfact
