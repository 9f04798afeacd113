#include "dist/mapping.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "support/error.h"

namespace parfact {
namespace {

/// Largest divisor of k that is <= sqrt(k): the squarest pr x pc grid.
int square_grid_rows(int k) {
  int best = 1;
  for (int d = 1; d * d <= k; ++d) {
    if (k % d == 0) best = d;
  }
  return best;
}

/// Largest np <= k whose squarest factorization has aspect ratio <= 3. A
/// 1 x k grid (prime k) serializes the whole panel TRSM of every block
/// column on one rank, so it pays to idle a few ranks (spectators) in
/// exchange for a 2-D shape.
int shapely_grid_size(int k) {
  for (int np = k; np >= 1; --np) {
    const int pr = square_grid_rows(np);
    if (np <= 3 * pr * pr) return np;
  }
  return 1;
}

}  // namespace

void FrontMap::validate(const SymbolicFactor& sym) const {
  PARFACT_CHECK(static_cast<index_t>(rank_begin.size()) == sym.n_supernodes);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    PARFACT_CHECK(rank_count[s] >= 1);
    PARFACT_CHECK(rank_begin[s] >= 0 &&
                  rank_begin[s] + rank_count[s] <= n_ranks);
    PARFACT_CHECK(grid_rows[s] >= 1 && grid_cols[s] >= 1);
    PARFACT_CHECK(grid_rows[s] * grid_cols[s] <= rank_count[s]);
    const index_t parent = sym.sn_parent[s];
    if (parent != kNone) {
      // Child ranges nest inside parent ranges — the property every
      // communication schedule in dist/ relies on.
      PARFACT_CHECK(rank_begin[s] >= rank_begin[parent]);
      PARFACT_CHECK(rank_begin[s] + rank_count[s] <=
                    rank_begin[parent] + rank_count[parent]);
    }
  }
}

FrontMap build_front_map(const SymbolicFactor& sym, int n_ranks,
                         MappingStrategy strategy, index_t block_size,
                         double grain_flops) {
  PARFACT_CHECK(n_ranks >= 1 && block_size >= 1 && grain_flops > 0.0);
  const index_t ns = sym.n_supernodes;
  FrontMap map;
  map.n_ranks = n_ranks;
  map.block_size = block_size;
  map.strategy = strategy;
  map.rank_begin.assign(static_cast<std::size_t>(ns), 0);
  map.rank_count.assign(static_cast<std::size_t>(ns), n_ranks);

  if (strategy != MappingStrategy::kFlat) {
    // Subtree work: postorder guarantees children come first.
    std::vector<double> work(static_cast<std::size_t>(ns), 0.0);
    for (index_t s = 0; s < ns; ++s) {
      work[s] += static_cast<double>(sym.sn_flops[s]);
      if (sym.sn_parent[s] != kNone) work[sym.sn_parent[s]] += work[s];
    }
    std::vector<index_t> roots;
    for (index_t s = 0; s < ns; ++s) {
      if (sym.sn_parent[s] == kNone) roots.push_back(s);
    }

    // Proportional splitting of a rank range [a, a+k) among `nodes`
    // (children of one node, or the forest roots). Boundaries are rounded
    // monotonically so that substantial children receive *disjoint* ranges —
    // overlap would serialize sibling subtrees on the shared ranks and
    // destroy the tree-level speedup. Children too small to earn a whole
    // rank share the last boundary rank.
    const auto split = [&](std::span<const index_t> nodes, int a, int k) {
      double total = 0.0;
      for (index_t c : nodes) total += work[c];
      if (total <= 0.0) total = 1.0;
      double cum = 0.0;
      int prev = a;
      for (index_t c : nodes) {
        cum += work[c];
        int end = a + static_cast<int>(
                          std::llround(cum / total * static_cast<double>(k)));
        end = std::min(end, a + k);
        if (end > prev) {
          map.rank_begin[c] = prev;
          map.rank_count[c] = end - prev;
          prev = end;
        } else {
          // Tiny subtree: park it on the rank just before the boundary.
          map.rank_begin[c] = std::min(std::max(prev - 1, a), a + k - 1);
          map.rank_count[c] = 1;
        }
      }
    };

    split(roots, 0, n_ranks);
    // Top-down: each node's range was set by its parent's split (roots
    // above); now split it among its own children. Iterate in reverse
    // postorder so parents are handled before children.
    for (index_t s = ns - 1; s >= 0; --s) {
      if (!sym.children(s).empty()) {
        split(sym.children(s), map.rank_begin[s], map.rank_count[s]);
      }
    }
  }

  // Work-based cap: shrink each front's participant set to what its flop
  // count can amortize, keeping the prefix property children rely on
  // (participants of s must contain participants of every child; ranges
  // nest and children of chains share the parent's begin, so enforcing
  // count monotonicity bottom-up suffices). The flat ablation strategy is
  // deliberately left uncapped — paying for every front on every rank is
  // the effect it exists to demonstrate.
  if (strategy != MappingStrategy::kFlat) {
    // Bottom-up (children precede parents in supernode numbering): cap by
    // work, round 2-D grids to a shapely participant count (never past the
    // node's own split range, so sibling subtrees stay disjoint), and raise
    // parents to cover their children's participant prefixes.
    const std::vector<int> split_range(map.rank_count.begin(),
                                       map.rank_count.end());
    for (index_t s = 0; s < ns; ++s) {
      const int desired = std::max(
          1,
          static_cast<int>(std::ceil(static_cast<double>(sym.sn_flops[s]) /
                                     grain_flops)));
      map.rank_count[s] = std::min(split_range[s], desired);
    }
    for (index_t s = 0; s < ns; ++s) {
      const index_t parent = sym.sn_parent[s];
      if (parent != kNone) {
        const int needed = map.rank_begin[s] + map.rank_count[s] -
                           map.rank_begin[parent];
        map.rank_count[parent] = std::max(map.rank_count[parent], needed);
      }
    }
  }

  map.grid_rows.resize(static_cast<std::size_t>(ns));
  map.grid_cols.resize(static_cast<std::size_t>(ns));
  for (index_t s = 0; s < ns; ++s) {
    const int k = map.rank_count[s];
    if (strategy == MappingStrategy::kSubtree1d) {
      map.grid_rows[s] = k;  // row-block-cyclic: all columns on each owner
      map.grid_cols[s] = 1;
    } else {
      const int used = shapely_grid_size(k);
      map.grid_rows[s] = square_grid_rows(used);
      map.grid_cols[s] = used / map.grid_rows[s];
    }
  }
  map.validate(sym);
  return map;
}

std::vector<double> mapped_work_per_rank(const SymbolicFactor& sym,
                                         const FrontMap& map) {
  std::vector<double> load(static_cast<std::size_t>(map.n_ranks), 0.0);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const int used = map.grid_size(s);
    const double share =
        static_cast<double>(sym.sn_flops[s]) / static_cast<double>(used);
    for (int r = map.rank_begin[s]; r < map.rank_begin[s] + used; ++r) {
      load[r] += share;
    }
  }
  return load;
}

}  // namespace parfact
