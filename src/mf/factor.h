// Supernodal Cholesky factor storage.
//
// The factor of supernode s is a dense trapezoidal *panel*: an
// (ncols + nbelow) x ncols column-major block whose first ncols rows hold
// the lower-triangular diagonal block L11 and whose remaining rows hold the
// rectangular L21 in the order of the supernode's below-row list. This is
// the layout the factorization writes and the triangular solves read.
#pragma once

#include <span>
#include <vector>

#include "dense/matrix_view.h"
#include "support/types.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

class CholeskyFactor {
 public:
  /// Allocates zeroed panels shaped by `sym`. `sym` must outlive this object.
  explicit CholeskyFactor(const SymbolicFactor& sym);

  [[nodiscard]] const SymbolicFactor& symbolic() const { return *sym_; }

  /// Mutable/const view of supernode s's panel.
  [[nodiscard]] MatrixView panel(index_t s);
  [[nodiscard]] ConstMatrixView panel(index_t s) const;

  /// Every panel, concatenated in supernode order: one contiguous array,
  /// laid out exactly as the OOC scratch file stores it.
  [[nodiscard]] std::span<const real_t> values() const { return values_; }
  [[nodiscard]] std::span<real_t> values() { return values_; }

  /// Total stored entries (== symbolic().nnz_stored).
  [[nodiscard]] count_t stored_entries() const {
    return static_cast<count_t>(values_.size());
  }

  /// L(i, j) for i >= j in postordered indices (0 if not stored). For tests
  /// and debugging; O(log) per access.
  [[nodiscard]] real_t entry(index_t i, index_t j) const;

  /// LDLᵀ support: when the factorization ran in LDLᵀ mode, panels hold the
  /// unit-diagonal L and `diag()` holds D; empty for plain Cholesky.
  [[nodiscard]] bool is_ldlt() const { return !d_.empty(); }
  [[nodiscard]] std::span<const real_t> diag() const { return d_; }
  /// Allocates the D vector (called by the LDLᵀ factorization).
  std::span<real_t> allocate_diag();
  /// Writable view of D for in-place repair (ABFT subtree recompute);
  /// empty for plain Cholesky. Does not (re)allocate.
  [[nodiscard]] std::span<real_t> mutable_diag() { return d_; }

 private:
  std::vector<real_t> d_;
  const SymbolicFactor* sym_;
  std::vector<real_t> values_;
  std::vector<std::size_t> offset_;  ///< per-supernode start in values_
};

/// Numeric statistics of one factorization run.
struct FactorStats {
  double seconds = 0.0;
  count_t flops = 0;
  /// Peak bytes of live update (contribution) blocks — the multifrontal
  /// stack. Factor storage itself is not included.
  std::size_t peak_update_bytes = 0;
  /// Pivots boosted by static pivoting (0 unless a PivotPolicy with
  /// boosting was supplied and the matrix needed it).
  count_t pivot_perturbations = 0;
  /// ABFT accounting (zero unless the checksum-carrying engine ran):
  /// identities evaluated, mismatches detected, and fronts re-executed by
  /// the detect → localize → recompute path.
  count_t abft_checks = 0;
  count_t abft_detections = 0;
  count_t fronts_recomputed = 0;
};

}  // namespace parfact
