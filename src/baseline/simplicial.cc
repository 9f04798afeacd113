#include "baseline/simplicial.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dense/kernels.h"
#include "dense/matrix_view.h"
#include "support/error.h"
#include "support/timer.h"
#include "symbolic/etree.h"

namespace parfact {

SparseMatrix simplicial_cholesky(const SparseMatrix& lower,
                                 SimplicialStats* stats, PivotPolicy pivot) {
  WallTimer timer;
  PARFACT_CHECK(lower.rows == lower.cols);
  const real_t magnitude = pivot_magnitude(pivot, lower);
  count_t perturbations = 0;
  const index_t n = lower.rows;
  const std::vector<index_t> parent = elimination_tree(lower);
  const std::vector<index_t> counts = cholesky_col_counts(lower, parent);

  SparseMatrix l(n, n);
  for (index_t j = 0; j < n; ++j) l.col_ptr[j + 1] = l.col_ptr[j] + counts[j];
  l.row_ind.resize(static_cast<std::size_t>(l.col_ptr.back()));
  l.values.assign(static_cast<std::size_t>(l.col_ptr.back()), 0.0);
  // fill[j]: number of entries already emitted into column j.
  std::vector<index_t> fill(static_cast<std::size_t>(n), 0);

  // CSR view of the strict lower triangle of A for row-pattern walks.
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t k = 0; k < n; ++k) {
    for (index_t p = lower.col_ptr[k]; p < lower.col_ptr[k + 1]; ++p) {
      if (lower.row_ind[p] > k) ++row_ptr[lower.row_ind[p] + 1];
    }
  }
  for (index_t i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i];
  std::vector<index_t> row_cols(static_cast<std::size_t>(row_ptr.back()));
  {
    std::vector<index_t> next(row_ptr.begin(), row_ptr.end() - 1);
    for (index_t k = 0; k < n; ++k) {
      for (index_t p = lower.col_ptr[k]; p < lower.col_ptr[k + 1]; ++p) {
        if (lower.row_ind[p] > k) row_cols[next[lower.row_ind[p]]++] = k;
      }
    }
  }

  std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);  // dense scratch
  std::vector<index_t> pattern;  // columns k < j with L(j,k) != 0
  std::vector<char> marked(static_cast<std::size_t>(n), 0);

  for (index_t j = 0; j < n; ++j) {
    // ereach: row pattern of row j via etree walks from A's row-j entries.
    pattern.clear();
    for (index_t p = row_ptr[j]; p < row_ptr[j + 1]; ++p) {
      for (index_t k = row_cols[p]; k != kNone && k < j && !marked[k];
           k = parent[k]) {
        marked[k] = 1;
        pattern.push_back(k);
      }
    }
    // Left-looking updates must apply in increasing column order.
    std::sort(pattern.begin(), pattern.end());

    // Scatter A(j:n, j) into x.
    for (index_t p = lower.col_ptr[j]; p < lower.col_ptr[j + 1]; ++p) {
      x[lower.row_ind[p]] = lower.values[p];
    }

    for (index_t k : pattern) {
      marked[k] = 0;
      // Locate L(j, k) in column k: columns are emitted with sorted rows.
      const auto begin = l.row_ind.begin() + l.col_ptr[k];
      const auto end = l.row_ind.begin() + l.col_ptr[k] + fill[k];
      const auto it = std::lower_bound(begin, end, j);
      PARFACT_DCHECK(it != end && *it == j);
      const index_t off = static_cast<index_t>(it - l.row_ind.begin());
      const real_t ljk = l.values[off];
      for (index_t q = off; q < l.col_ptr[k] + fill[k]; ++q) {
        x[l.row_ind[q]] -= l.values[q] * ljk;
      }
    }

    real_t diag = x[j];
    PARFACT_CHECK_MSG(std::isfinite(diag),
                      "matrix is not positive definite at column " << j);
    if (diag <= magnitude) {
      PARFACT_CHECK_MSG(magnitude > 0.0,
                        "matrix is not positive definite at column " << j);
      diag = magnitude;
      ++perturbations;
    }
    const real_t dsqrt = std::sqrt(diag);

    // Column j's symbolic pattern is the union of A(j:n, j) and each
    // updating column k's tail rows (>= j); collect it exactly — explicit
    // zeros from numerical cancellation must stay in the structure.
    std::vector<index_t> rows;
    for (index_t p = lower.col_ptr[j]; p < lower.col_ptr[j + 1]; ++p) {
      rows.push_back(lower.row_ind[p]);
    }
    for (const index_t k : pattern) {
      const auto begin = l.row_ind.begin() + l.col_ptr[k];
      const auto end = l.row_ind.begin() + l.col_ptr[k] + fill[k];
      for (auto it = std::lower_bound(begin, end, j); it != end; ++it) {
        rows.push_back(*it);
      }
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    PARFACT_CHECK(static_cast<index_t>(rows.size()) == counts[j]);
    PARFACT_CHECK(rows.front() == j);

    index_t q = l.col_ptr[j];
    for (index_t i : rows) {
      l.row_ind[q] = i;
      l.values[q] = (i == j) ? dsqrt : x[i] / dsqrt;
      x[i] = 0.0;  // reset scratch
      ++q;
    }
    fill[j] = counts[j];
  }

  if (stats != nullptr) {
    stats->nnz_l = l.nnz();
    stats->seconds = timer.seconds();
    stats->pivot_perturbations = perturbations;
  }
  return l;
}

void simplicial_forward_solve(const SparseMatrix& l, std::span<real_t> x) {
  PARFACT_CHECK(static_cast<index_t>(x.size()) == l.rows);
  for (index_t j = 0; j < l.cols; ++j) {
    const index_t p0 = l.col_ptr[j];
    PARFACT_DCHECK(l.row_ind[p0] == j);
    const real_t xj = x[j] / l.values[p0];
    x[j] = xj;
    for (index_t p = p0 + 1; p < l.col_ptr[j + 1]; ++p) {
      x[l.row_ind[p]] -= l.values[p] * xj;
    }
  }
}

void simplicial_backward_solve(const SparseMatrix& l, std::span<real_t> x) {
  PARFACT_CHECK(static_cast<index_t>(x.size()) == l.rows);
  for (index_t j = l.cols - 1; j >= 0; --j) {
    const index_t p0 = l.col_ptr[j];
    real_t acc = x[j];
    for (index_t p = p0 + 1; p < l.col_ptr[j + 1]; ++p) {
      acc -= l.values[p] * x[l.row_ind[p]];
    }
    x[j] = acc / l.values[p0];
  }
}

void dense_cholesky_solve(const SparseMatrix& lower, std::span<real_t> x) {
  const index_t n = lower.rows;
  PARFACT_CHECK(static_cast<index_t>(x.size()) == n);
  std::vector<real_t> dense(static_cast<std::size_t>(n) * n, 0.0);
  MatrixView a{dense.data(), n, n, n};
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = lower.col_ptr[j]; p < lower.col_ptr[j + 1]; ++p) {
      a.at(lower.row_ind[p], j) = lower.values[p];
    }
  }
  PARFACT_CHECK_MSG(potrf_lower(a) == kNone, "matrix is not SPD");
  MatrixView xv{x.data(), n, 1, n};
  trsm_left_lower(a, xv);
  trsm_left_lower_trans(a, xv);
}

}  // namespace parfact
