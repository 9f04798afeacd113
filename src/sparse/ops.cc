#include "sparse/ops.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "support/error.h"

namespace parfact {

SparseMatrix transpose(const SparseMatrix& a) {
  SparseMatrix t(a.cols, a.rows);
  t.row_ind.resize(static_cast<std::size_t>(a.nnz()));
  t.values.resize(static_cast<std::size_t>(a.nnz()));
  // Column pointers of T = row counts of A.
  for (index_t p = 0; p < a.nnz(); ++p) ++t.col_ptr[a.row_ind[p] + 1];
  for (index_t i = 0; i < a.rows; ++i) t.col_ptr[i + 1] += t.col_ptr[i];
  std::vector<index_t> next(t.col_ptr.begin(), t.col_ptr.end() - 1);
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      const index_t q = next[a.row_ind[p]]++;
      t.row_ind[q] = j;
      t.values[q] = a.values[p];
    }
  }
  // Scanning A's columns in order emits each transposed column's rows in
  // increasing order, so T already satisfies the sortedness invariant.
  return t;
}

bool is_symmetric(const SparseMatrix& a, real_t tol) {
  if (a.rows != a.cols) return false;
  const SparseMatrix t = transpose(a);
  if (t.col_ptr != a.col_ptr || t.row_ind != a.row_ind) return false;
  for (std::size_t p = 0; p < a.values.size(); ++p) {
    const real_t x = a.values[p];
    const real_t y = t.values[p];
    const real_t scale = std::max({std::abs(x), std::abs(y), real_t{1}});
    if (std::abs(x - y) > tol * scale) return false;
  }
  return true;
}

namespace {

constexpr const char* kNotLower = "matrix is not lower-triangular-stored";

/// The counting-sort kernel behind both permutations. `for_each_entry(emit)`
/// calls emit(row, col, src) once for every entry src of the square matrix
/// `in`, naming the entry's place in the result; it runs twice and must
/// emit the same sequence both times. Pass one counts the entries of every
/// row and column, pass two buckets them by row, and the scatter walks the
/// rows in ascending order, so each column receives its rows sorted with no
/// sort call. O(nnz + n); the row buckets are the one nnz-sized temporary.
template <class ForEachEntry>
SparseMatrix counting_sort(const SparseMatrix& in, ForEachEntry for_each_entry,
                           std::vector<index_t>* source) {
  const index_t n = in.rows;
  const auto nnz = static_cast<std::size_t>(in.nnz());
  SparseMatrix out(n, n);
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for_each_entry([&](index_t r, index_t c, index_t) {
    ++row_ptr[r + 1];
    ++out.col_ptr[c + 1];
  });
  for (index_t i = 0; i < n; ++i) {
    row_ptr[i + 1] += row_ptr[i];
    out.col_ptr[i + 1] += out.col_ptr[i];
  }

  struct Slot {
    index_t col;
    index_t src;
  };
  std::vector<Slot> bucket(nnz);
  std::vector<index_t> next(row_ptr.begin(), row_ptr.end() - 1);
  for_each_entry([&](index_t r, index_t c, index_t src) {
    bucket[static_cast<std::size_t>(next[r]++)] = Slot{c, src};
  });

  out.row_ind.resize(nnz);
  out.values.resize(nnz);
  if (source != nullptr) source->resize(nnz);
  next.assign(out.col_ptr.begin(), out.col_ptr.end() - 1);
  for (index_t r = 0; r < n; ++r) {
    for (index_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const Slot s = bucket[static_cast<std::size_t>(k)];
      const index_t q = next[s.col]++;
      out.row_ind[q] = r;
      out.values[q] = in.values[s.src];
      if (source != nullptr) (*source)[q] = s.src;
    }
  }
  return out;
}

}  // namespace

SparseMatrix lower_triangle(const SparseMatrix& a) {
  PARFACT_CHECK(a.rows == a.cols);
  SparseMatrix l(a.rows, a.cols);
  for (index_t j = 0; j < a.cols; ++j) {
    index_t count = 0;
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      count += a.row_ind[p] >= j ? 1 : 0;
    }
    l.col_ptr[j + 1] = l.col_ptr[j] + count;
  }
  l.row_ind.resize(static_cast<std::size_t>(l.nnz()));
  l.values.resize(static_cast<std::size_t>(l.nnz()));
  index_t q = 0;
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      if (a.row_ind[p] >= j) {
        l.row_ind[q] = a.row_ind[p];
        l.values[q] = a.values[p];
        ++q;
      }
    }
  }
  return l;
}

SparseMatrix symmetrize_full(const SparseMatrix& lower) {
  PARFACT_CHECK(lower.rows == lower.cols);
  const index_t n = lower.cols;
  // A transpose merge: column j is its mirrored upper part (the
  // off-diagonal entries of row j, from the columns c < j in ascending
  // order) followed by its stored lower part.
  SparseMatrix full(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = lower.col_ptr[j]; p < lower.col_ptr[j + 1]; ++p) {
      const index_t r = lower.row_ind[p];
      PARFACT_CHECK_MSG(r >= j, kNotLower);
      PARFACT_DCHECK(p == lower.col_ptr[j] || lower.row_ind[p - 1] < r);
      if (r != j) ++full.col_ptr[r + 1];
    }
    full.col_ptr[j + 1] += lower.col_ptr[j + 1] - lower.col_ptr[j];
  }
  for (index_t j = 0; j < n; ++j) full.col_ptr[j + 1] += full.col_ptr[j];
  full.row_ind.resize(static_cast<std::size_t>(full.nnz()));
  full.values.resize(static_cast<std::size_t>(full.nnz()));
  std::vector<index_t> next(full.col_ptr.begin(), full.col_ptr.end() - 1);
  for (index_t c = 0; c < n; ++c) {
    index_t q = full.col_ptr[c + 1] - lower.col_ptr[c + 1] + lower.col_ptr[c];
    for (index_t p = lower.col_ptr[c]; p < lower.col_ptr[c + 1]; ++p) {
      const index_t r = lower.row_ind[p];
      const real_t v = 0.0 + lower.values[p];
      full.row_ind[q] = r;
      full.values[q] = v;
      ++q;
      if (r != c) {
        const index_t m = next[r]++;
        full.row_ind[m] = c;
        full.values[m] = v;
      }
    }
  }
  return full;
}

SparseMatrix permute_symmetric(const SparseMatrix& a,
                               std::span<const index_t> perm) {
  PARFACT_CHECK(a.rows == a.cols);
  PARFACT_CHECK(static_cast<index_t>(perm.size()) == a.rows);
  const std::vector<index_t> inv = invert_permutation(perm);
  const auto for_each_entry = [&](auto&& emit) {
    for (index_t j = 0; j < a.cols; ++j) {
      for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
        emit(inv[a.row_ind[p]], inv[j], p);
      }
    }
  };
  return counting_sort(a, for_each_entry, nullptr);
}

SparseMatrix permute_lower(const SparseMatrix& lower,
                           std::span<const index_t> perm,
                           std::vector<index_t>* source) {
  PARFACT_CHECK(lower.rows == lower.cols);
  PARFACT_CHECK(static_cast<index_t>(perm.size()) == lower.rows);
  const std::vector<index_t> inv = invert_permutation(perm);
  // Entry (r, c), r >= c, lands at (max, min) of its new indices: this is
  // cs_symperm's mapping, and the bucket-by-row pass is its transpose.
  const auto for_each_entry = [&](auto&& emit) {
    for (index_t c = 0; c < lower.cols; ++c) {
      const index_t nc = inv[c];
      for (index_t p = lower.col_ptr[c]; p < lower.col_ptr[c + 1]; ++p) {
        const index_t r = lower.row_ind[p];
        PARFACT_CHECK_MSG(r >= c, kNotLower);
        const index_t nr = inv[r];
        emit(std::max(nr, nc), std::min(nr, nc), p);
      }
    }
  };
  return counting_sort(lower, for_each_entry, source);
}

void spmv(const SparseMatrix& a, std::span<const real_t> x,
          std::span<real_t> y) {
  PARFACT_CHECK(static_cast<index_t>(x.size()) == a.cols);
  PARFACT_CHECK(static_cast<index_t>(y.size()) == a.rows);
  std::fill(y.begin(), y.end(), real_t{0});
  for (index_t j = 0; j < a.cols; ++j) {
    const real_t xj = x[j];
    if (xj == 0.0) continue;
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      y[a.row_ind[p]] += a.values[p] * xj;
    }
  }
}

void spmv_symmetric_lower(const SparseMatrix& lower,
                          std::span<const real_t> x, std::span<real_t> y) {
  PARFACT_CHECK(lower.rows == lower.cols);
  PARFACT_CHECK(static_cast<index_t>(x.size()) == lower.cols);
  PARFACT_CHECK(static_cast<index_t>(y.size()) == lower.rows);
  std::fill(y.begin(), y.end(), real_t{0});
  for (index_t j = 0; j < lower.cols; ++j) {
    for (index_t p = lower.col_ptr[j]; p < lower.col_ptr[j + 1]; ++p) {
      const index_t i = lower.row_ind[p];
      const real_t v = lower.values[p];
      y[i] += v * x[j];
      if (i != j) y[j] += v * x[i];
    }
  }
}

real_t norm_inf(const SparseMatrix& a) {
  std::vector<real_t> row_sum(static_cast<std::size_t>(a.rows), 0.0);
  for (index_t p = 0; p < a.nnz(); ++p) {
    row_sum[a.row_ind[p]] += std::abs(a.values[p]);
  }
  real_t m = 0.0;
  for (real_t s : row_sum) m = std::max(m, s);
  return m;
}

real_t norm_inf_symmetric(const SparseMatrix& lower) {
  PARFACT_CHECK(lower.rows == lower.cols);
  // Row i receives |a_ic| for c < i while column c is scanned, then its
  // diagonal and |a_ri| for r > i while column i is: the column order in
  // which norm_inf walks the full-stored matrix.
  std::vector<real_t> row_sum(static_cast<std::size_t>(lower.rows), 0.0);
  for (index_t c = 0; c < lower.cols; ++c) {
    for (index_t p = lower.col_ptr[c]; p < lower.col_ptr[c + 1]; ++p) {
      const index_t r = lower.row_ind[p];
      PARFACT_CHECK_MSG(r >= c, kNotLower);
      const real_t v = std::abs(lower.values[p]);
      row_sum[r] += v;
      if (r != c) row_sum[c] += v;
    }
  }
  real_t m = 0.0;
  for (real_t s : row_sum) m = std::max(m, s);
  return m;
}

real_t norm_frobenius(const SparseMatrix& a) {
  real_t s = 0.0;
  for (real_t v : a.values) s += v * v;
  return std::sqrt(s);
}

real_t max_abs(const SparseMatrix& a) {
  real_t m = 0.0;
  for (real_t v : a.values) m = std::max(m, std::abs(v));
  return m;
}

bool is_permutation(std::span<const index_t> perm) {
  const auto n = static_cast<index_t>(perm.size());
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (index_t v : perm) {
    if (v < 0 || v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

std::vector<index_t> invert_permutation(std::span<const index_t> perm) {
  std::vector<index_t> inv(perm.size(), kNone);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    PARFACT_CHECK_MSG(perm[i] >= 0 &&
                          perm[i] < static_cast<index_t>(perm.size()) &&
                          inv[perm[i]] == kNone,
                      "not a permutation");
    inv[perm[i]] = static_cast<index_t>(i);
  }
  return inv;
}

real_t dot(std::span<const real_t> x, std::span<const real_t> y) {
  PARFACT_CHECK(x.size() == y.size());
  real_t s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

real_t norm2(std::span<const real_t> x) { return std::sqrt(dot(x, x)); }

real_t norm_inf(std::span<const real_t> x) {
  real_t m = 0.0;
  for (real_t v : x) m = std::max(m, std::abs(v));
  return m;
}

void axpy(real_t alpha, std::span<const real_t> x, std::span<real_t> y) {
  PARFACT_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace parfact
