// Supernodal symbolic analysis: the complete "analyze" phase of the solver.
//
// Pipeline (input: fill-ordered, lower-stored SPD pattern):
//   1. elimination tree + postorder; the matrix is permuted by the postorder
//      so that every subtree — and hence every supernode — is contiguous.
//   2. column counts of L.
//   3. fundamental supernodes, then relaxed amalgamation (merging small
//      children into parents, trading explicit zeros for bigger dense
//      fronts — the classic multifrontal performance knob, ablated in F6).
//   4. assembly tree over supernodes + exact below-diagonal row structure of
//      every supernode, per-front flop counts and factor sizes.
//
// The resulting SymbolicFactor is consumed by the serial, shared-memory and
// distributed numeric factorizations and by the solve phase.
#pragma once

#include <span>
#include <vector>

#include "sparse/sparse_matrix.h"
#include "support/types.h"

namespace parfact {

struct AmalgamationOptions {
  bool enable = true;
  /// A merge producing at most this many columns is always accepted.
  index_t relax_small = 16;
  /// Otherwise merge only if explicit zeros stay below this fraction of the
  /// merged supernode's stored entries.
  double relax_ratio = 0.12;
};

/// Result of the analyze phase. All arrays refer to the *postordered* matrix
/// stored in `a`; `post` maps postordered indices back to the analyze()
/// input's indices.
struct SymbolicFactor {
  index_t n = 0;
  SparseMatrix a;                  ///< postordered lower-stored input
  std::vector<index_t> post;       ///< post[new] = old (w.r.t. analyze input)
  std::vector<index_t> parent;     ///< postordered column etree
  std::vector<index_t> col_count;  ///< nnz(L(:,j)) incl. diagonal

  index_t n_supernodes = 0;
  std::vector<index_t> sn_start;   ///< size n_supernodes+1; cols of sn s are
                                   ///< [sn_start[s], sn_start[s+1])
  std::vector<index_t> sn_of;      ///< column -> supernode
  std::vector<index_t> sn_parent;  ///< assembly tree, kNone at roots
  /// The same tree as child lists (CSR): the children of s are
  /// sn_child[sn_child_ptr[s] .. sn_child_ptr[s+1]), ascending. Every
  /// engine extend-adds a front's children in this order.
  std::vector<index_t> sn_child_ptr;  ///< size n_supernodes+1
  std::vector<index_t> sn_child;
  std::vector<index_t> sn_row_ptr; ///< size n_supernodes+1
  std::vector<index_t> sn_rows;    ///< ascending below-block rows per sn

  count_t nnz_strict = 0;   ///< sum of column counts (true factor nonzeros)
  count_t nnz_stored = 0;   ///< stored entries incl. amalgamation zeros
  count_t total_flops = 0;  ///< factorization flops over all fronts
  std::vector<count_t> sn_flops;  ///< per-front factorization flops

  [[nodiscard]] index_t sn_cols(index_t s) const {
    return sn_start[s + 1] - sn_start[s];
  }
  [[nodiscard]] index_t sn_below(index_t s) const {
    return sn_row_ptr[s + 1] - sn_row_ptr[s];
  }
  /// Dense front order of supernode s: panel columns + below rows.
  [[nodiscard]] index_t front_order(index_t s) const {
    return sn_cols(s) + sn_below(s);
  }
  [[nodiscard]] std::span<const index_t> below_rows(index_t s) const {
    return {sn_rows.data() + sn_row_ptr[s],
            static_cast<std::size_t>(sn_below(s))};
  }
  /// Children of supernode s in the assembly tree, ascending.
  [[nodiscard]] std::span<const index_t> children(index_t s) const {
    return {sn_child.data() + sn_child_ptr[s],
            static_cast<std::size_t>(sn_child_ptr[s + 1] - sn_child_ptr[s])};
  }
  /// Smallest supernode of s's subtree: the postorder makes the subtree the
  /// contiguous range [first_descendant(s), s].
  [[nodiscard]] index_t first_descendant(index_t s) const {
    while (sn_child_ptr[s] < sn_child_ptr[s + 1]) {
      s = sn_child[sn_child_ptr[s]];
    }
    return s;
  }

  /// Validates all internal invariants (used by tests).
  void validate() const;
};

/// Flops to eliminate the first `panel` columns of a dense symmetric front of
/// order `front` (sqrt + column scaling + rank-1 trailing updates, counting
/// multiply and add separately).
[[nodiscard]] count_t partial_cholesky_flops(index_t panel, index_t front);

/// Runs the analyze phase. `lower` must be square, lower-triangle stored,
/// with every diagonal entry present. If `source` is given, it receives for
/// every entry q of the result's `a` the position in `lower` of its value
/// (permute_lower's source map): a.values[q] == lower.values[(*source)[q]].
[[nodiscard]] SymbolicFactor analyze(const SparseMatrix& lower,
                                     const AmalgamationOptions& opts = {},
                                     std::vector<index_t>* source = nullptr);

}  // namespace parfact
