// Compressed sparse column (CSC) matrix and triplet (COO) builder.
//
// CSC is the canonical format for sparse Cholesky: column j of the matrix is
// rows row_ind[col_ptr[j] .. col_ptr[j+1]) with matching values. Row indices
// within each column are kept sorted and duplicate-free by the builders in
// this module; all downstream code relies on that invariant.
//
// Symmetric matrices appear in two storage conventions:
//  * "full"  — both triangles stored (used by graph/ordering code),
//  * "lower" — only entries with row >= col (used by factorization input).
// Conversion helpers live in sparse/ops.h.
#pragma once

#include <vector>

#include "support/error.h"
#include "support/types.h"

namespace parfact {

/// CSC sparse matrix. Invariants (checked by `validate()`):
/// col_ptr is non-decreasing with col_ptr[0]==0 and col_ptr[cols]==nnz;
/// row indices are in range, strictly increasing within each column.
struct SparseMatrix {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> col_ptr;  ///< size cols()+1
  std::vector<index_t> row_ind;  ///< size nnz()
  std::vector<real_t> values;    ///< size nnz()

  SparseMatrix() = default;
  SparseMatrix(index_t r, index_t c)
      : rows(r), cols(c), col_ptr(static_cast<std::size_t>(c) + 1, 0) {}

  [[nodiscard]] index_t nnz() const {
    return col_ptr.empty() ? 0 : col_ptr.back();
  }

  /// Throws parfact::Error if any structural invariant is violated.
  void validate() const;

  /// Value at (i, j), or 0 if not stored. O(log nnz(col j)).
  [[nodiscard]] real_t at(index_t i, index_t j) const;
};

/// Triplet accumulator. Duplicate entries are summed when compiled to CSC,
/// which makes finite-element assembly (overlapping element stiffness
/// contributions) a one-liner.
class TripletBuilder {
 public:
  TripletBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
    PARFACT_CHECK(rows >= 0 && cols >= 0);
  }

  void add(index_t i, index_t j, real_t v) {
    PARFACT_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    entries_.push_back(Entry{i, j, v});
  }

  /// Adds v at (i,j) and (j,i); adds only once when i == j.
  void add_symmetric(index_t i, index_t j, real_t v) {
    add(i, j, v);
    if (i != j) add(j, i, v);
  }

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }

  /// Compiles to CSC, summing duplicates and dropping exact zeros that result
  /// from cancellation only if `drop_zeros` is set.
  [[nodiscard]] SparseMatrix build(bool drop_zeros = false) const;

 private:
  struct Entry {
    index_t row;
    index_t col;
    real_t value;
  };
  index_t rows_;
  index_t cols_;
  std::vector<Entry> entries_;
};

}  // namespace parfact
