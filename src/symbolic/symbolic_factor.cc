#include "symbolic/symbolic_factor.h"

#include <algorithm>
#include <numeric>

#include "sparse/ops.h"
#include "support/error.h"
#include "symbolic/etree.h"

namespace parfact {

count_t partial_cholesky_flops(index_t panel, index_t front) {
  PARFACT_CHECK(panel >= 0 && panel <= front);
  count_t flops = 0;
  for (index_t k = 0; k < panel; ++k) {
    const count_t below = front - k - 1;  // entries under pivot k
    flops += 1 + below + below * (below + 1);
  }
  return flops;
}

void SymbolicFactor::validate() const {
  PARFACT_CHECK(n == a.rows && n == a.cols);
  PARFACT_CHECK(static_cast<index_t>(post.size()) == n);
  PARFACT_CHECK(is_permutation(post));
  PARFACT_CHECK(is_postordered(parent));
  PARFACT_CHECK(static_cast<index_t>(sn_start.size()) == n_supernodes + 1);
  PARFACT_CHECK(sn_start.front() == 0 && sn_start.back() == n);
  for (index_t s = 0; s < n_supernodes; ++s) {
    PARFACT_CHECK(sn_start[s] < sn_start[s + 1]);
    for (index_t j = sn_start[s]; j < sn_start[s + 1]; ++j) {
      PARFACT_CHECK(sn_of[j] == s);
      // Columns within a supernode chain through the etree.
      if (j + 1 < sn_start[s + 1]) PARFACT_CHECK(parent[j] == j + 1);
    }
    // Below rows: sorted, strictly beyond the block.
    const auto rows = below_rows(s);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      PARFACT_CHECK(rows[k] >= sn_start[s + 1] && rows[k] < n);
      if (k > 0) PARFACT_CHECK(rows[k - 1] < rows[k]);
    }
    // Assembly tree consistency: parent supernode owns parent column of the
    // last column of s.
    const index_t last = sn_start[s + 1] - 1;
    if (parent[last] == kNone) {
      PARFACT_CHECK(sn_parent[s] == kNone);
    } else {
      PARFACT_CHECK(sn_parent[s] == sn_of[parent[last]]);
      PARFACT_CHECK(sn_parent[s] > s);
      // The first below row is exactly the parent column of the last col.
      PARFACT_CHECK(!rows.empty() && rows.front() == parent[last]);
    }
  }
  // Child lists: ascending, each child names its list's owner as parent,
  // and together they hold every non-root exactly once; the first
  // descendant is the smallest supernode of the subtree.
  PARFACT_CHECK(static_cast<index_t>(sn_child_ptr.size()) == n_supernodes + 1);
  PARFACT_CHECK(sn_child_ptr.front() == 0 &&
                sn_child_ptr.back() == static_cast<index_t>(sn_child.size()));
  index_t n_roots = 0;
  std::vector<index_t> smallest(static_cast<std::size_t>(n_supernodes));
  for (index_t s = 0; s < n_supernodes; ++s) {
    PARFACT_CHECK(sn_child_ptr[s] <= sn_child_ptr[s + 1]);
    if (sn_parent[s] == kNone) ++n_roots;
    smallest[s] = s;
    const auto kids = children(s);
    for (std::size_t k = 0; k < kids.size(); ++k) {
      PARFACT_CHECK(sn_parent[kids[k]] == s);
      if (k > 0) PARFACT_CHECK(kids[k - 1] < kids[k]);
      smallest[s] = std::min(smallest[s], smallest[kids[k]]);
    }
    PARFACT_CHECK(first_descendant(s) == smallest[s]);
  }
  PARFACT_CHECK(static_cast<index_t>(sn_child.size()) ==
                n_supernodes - n_roots);
}

namespace {

/// Fundamental supernodes: column j+1 joins column j's supernode iff
/// parent[j] == j+1, col_count[j] == col_count[j+1] + 1, and j+1 has exactly
/// one etree child among {j} (guaranteed by the count identity only when
/// j+1's other children contribute nothing; checking counts + parent is the
/// standard sufficient test when paired with child counting).
std::vector<index_t> fundamental_supernode_starts(
    const std::vector<index_t>& parent, const std::vector<index_t>& col_count,
    index_t n) {
  std::vector<index_t> n_children(static_cast<std::size_t>(n), 0);
  for (index_t j = 0; j < n; ++j) {
    if (parent[j] != kNone) ++n_children[parent[j]];
  }
  std::vector<index_t> starts{0};
  for (index_t j = 1; j < n; ++j) {
    const bool chained = parent[j - 1] == j && n_children[j] == 1 &&
                         col_count[j - 1] == col_count[j] + 1;
    if (!chained) starts.push_back(j);
  }
  starts.push_back(n);
  return starts;
}

struct MergedSupernode {
  index_t first = 0;
  index_t last = 0;        // inclusive last column
  index_t below = 0;       // |rows strictly beyond `last`| of the top part
  bool merged_away = false;
};

}  // namespace

SymbolicFactor analyze(const SparseMatrix& lower,
                       const AmalgamationOptions& opts,
                       std::vector<index_t>* source) {
  PARFACT_CHECK(lower.rows == lower.cols);
  SymbolicFactor sf;
  sf.n = lower.rows;
  const index_t n = sf.n;
  for (index_t j = 0; j < n; ++j) {
    PARFACT_CHECK_MSG(lower.col_ptr[j] < lower.col_ptr[j + 1] &&
                          lower.row_ind[lower.col_ptr[j]] == j,
                      "missing diagonal entry in column " << j);
  }

  // 1. Etree + postorder; permute the matrix so supernodes are contiguous.
  {
    const std::vector<index_t> parent0 = elimination_tree(lower);
    sf.post = tree_postorder(parent0);
    sf.a = permute_lower(lower, sf.post, source);
    sf.parent = relabel_tree(parent0, sf.post);
    PARFACT_CHECK(is_postordered(sf.parent));
  }

  // 2. Column counts.
  sf.col_count = cholesky_col_counts(sf.a, sf.parent);
  sf.nnz_strict =
      std::accumulate(sf.col_count.begin(), sf.col_count.end(), count_t{0});

  // 3. Fundamental supernodes + relaxed amalgamation.
  const std::vector<index_t> fstarts =
      fundamental_supernode_starts(sf.parent, sf.col_count, n);
  const auto nf = static_cast<index_t>(fstarts.size()) - 1;
  std::vector<MergedSupernode> sn(static_cast<std::size_t>(nf));
  std::vector<index_t> fsn_of(static_cast<std::size_t>(n));
  for (index_t s = 0; s < nf; ++s) {
    sn[s].first = fstarts[s];
    sn[s].last = fstarts[s + 1] - 1;
    sn[s].below = sf.col_count[sn[s].first] - (sn[s].last - sn[s].first + 1);
    for (index_t j = fstarts[s]; j < fstarts[s + 1]; ++j) fsn_of[j] = s;
  }

  if (opts.enable) {
    // Left-to-right scan; for each supernode keep absorbing the supernode
    // that ends right before its (current) first column, provided that
    // neighbor's etree parent is inside this supernode and the zero-fill
    // criterion accepts. Absorbing extends `first` leftward, so iterate.
    for (index_t s = 0; s < nf; ++s) {
      if (sn[s].merged_away) continue;
      for (;;) {
        const index_t first = sn[s].first;
        if (first == 0) break;
        const index_t c = fsn_of[first - 1];
        if (sn[c].merged_away) break;  // cannot happen; safety
        const index_t c_last = sn[c].last;
        PARFACT_CHECK(c_last == first - 1);
        // Child's parent column must be the first column of s's block for
        // the merged block to stay a valid chain.
        if (sf.parent[c_last] != first) break;
        const index_t nc = c_last - sn[c].first + 1;
        const index_t np = sn[s].last - first + 1;
        // Explicit zeros introduced by treating the child's columns as
        // having the merged pattern.
        count_t zeros = 0;
        for (index_t k = 0; k < nc; ++k) {
          const index_t merged_len = (nc - k) + np + sn[s].below;
          zeros += merged_len - sf.col_count[sn[c].first + k];
        }
        const index_t m = nc + np;
        const count_t stored =
            static_cast<count_t>(m) * (m + 1) / 2 +
            static_cast<count_t>(m) * sn[s].below;
        // "Small" must bound the *merged* width, not just the child:
        // child-only tests cascade through chains of narrow supernodes and
        // can collapse whole separator chains into one quadratic-storage
        // block.
        const bool small_merge = m <= opts.relax_small;
        const bool low_fill =
            static_cast<double>(zeros) <= opts.relax_ratio *
                                              static_cast<double>(stored);
        if (!(small_merge || low_fill)) break;
        // Merge c into s.
        sn[c].merged_away = true;
        sn[s].first = sn[c].first;
        for (index_t j = sn[c].first; j <= sn[c].last; ++j) fsn_of[j] = s;
      }
    }
  }

  // 4. Final partition arrays.
  sf.sn_start.clear();
  sf.sn_of.assign(static_cast<std::size_t>(n), kNone);
  for (index_t s = 0; s < nf; ++s) {
    if (sn[s].merged_away) continue;
    sf.sn_start.push_back(sn[s].first);
  }
  std::sort(sf.sn_start.begin(), sf.sn_start.end());
  sf.sn_start.push_back(n);
  sf.n_supernodes = static_cast<index_t>(sf.sn_start.size()) - 1;
  for (index_t s = 0; s < sf.n_supernodes; ++s) {
    for (index_t j = sf.sn_start[s]; j < sf.sn_start[s + 1]; ++j) {
      sf.sn_of[j] = s;
    }
  }

  // Assembly tree.
  sf.sn_parent.assign(static_cast<std::size_t>(sf.n_supernodes), kNone);
  for (index_t s = 0; s < sf.n_supernodes; ++s) {
    const index_t last = sf.sn_start[s + 1] - 1;
    if (sf.parent[last] != kNone) sf.sn_parent[s] = sf.sn_of[sf.parent[last]];
  }

  // The same tree as ascending child lists: a counting sort by parent.
  sf.sn_child_ptr.assign(static_cast<std::size_t>(sf.n_supernodes) + 1, 0);
  for (index_t s = 0; s < sf.n_supernodes; ++s) {
    if (sf.sn_parent[s] != kNone) ++sf.sn_child_ptr[sf.sn_parent[s] + 1];
  }
  for (index_t s = 0; s < sf.n_supernodes; ++s) {
    sf.sn_child_ptr[s + 1] += sf.sn_child_ptr[s];
  }
  sf.sn_child.resize(static_cast<std::size_t>(sf.sn_child_ptr.back()));
  {
    std::vector<index_t> fill(sf.sn_child_ptr.begin(),
                              sf.sn_child_ptr.end() - 1);
    for (index_t s = 0; s < sf.n_supernodes; ++s) {
      if (sf.sn_parent[s] != kNone) sf.sn_child[fill[sf.sn_parent[s]]++] = s;
    }
  }

  // Exact below-row structure: union of this supernode's A columns and the
  // children's below rows, restricted to rows beyond the block. Children
  // precede parents in supernode numbering (postorder), so one sweep works.
  sf.sn_row_ptr.assign(static_cast<std::size_t>(sf.n_supernodes) + 1, 0);
  std::vector<index_t> marker(static_cast<std::size_t>(n), kNone);
  std::vector<std::vector<index_t>> rows_of(
      static_cast<std::size_t>(sf.n_supernodes));
  for (index_t s = 0; s < sf.n_supernodes; ++s) {
    const index_t block_end = sf.sn_start[s + 1];
    auto& rows = rows_of[s];
    for (index_t j = sf.sn_start[s]; j < block_end; ++j) {
      for (index_t p = sf.a.col_ptr[j]; p < sf.a.col_ptr[j + 1]; ++p) {
        const index_t i = sf.a.row_ind[p];
        if (i >= block_end && marker[i] != s) {
          marker[i] = s;
          rows.push_back(i);
        }
      }
    }
    for (index_t c : sf.children(s)) {
      for (index_t i : rows_of[c]) {
        if (i >= block_end && marker[i] != s) {
          marker[i] = s;
          rows.push_back(i);
        }
      }
    }
    std::sort(rows.begin(), rows.end());
    sf.sn_row_ptr[s + 1] = sf.sn_row_ptr[s] + static_cast<index_t>(rows.size());
  }
  sf.sn_rows.resize(static_cast<std::size_t>(sf.sn_row_ptr.back()));
  for (index_t s = 0; s < sf.n_supernodes; ++s) {
    std::copy(rows_of[s].begin(), rows_of[s].end(),
              sf.sn_rows.begin() + sf.sn_row_ptr[s]);
  }

  // 5. Stats.
  sf.nnz_stored = 0;
  sf.total_flops = 0;
  sf.sn_flops.resize(static_cast<std::size_t>(sf.n_supernodes));
  for (index_t s = 0; s < sf.n_supernodes; ++s) {
    const count_t m = sf.sn_cols(s);
    const count_t b = sf.sn_below(s);
    sf.nnz_stored += m * (m + 1) / 2 + m * b;
    sf.sn_flops[s] = partial_cholesky_flops(sf.sn_cols(s), sf.front_order(s));
    sf.total_flops += sf.sn_flops[s];
  }
  return sf;
}

}  // namespace parfact
