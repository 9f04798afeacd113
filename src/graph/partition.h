// Graph bisection: greedy growing, Fiduccia–Mattheyses refinement, multilevel
// scheme (heavy-edge-matching coarsening), and vertex-separator extraction.
//
// This is the engine behind nested dissection. It follows the multilevel
// scheme METIS popularized: coarsen with heavy-edge matching until the graph
// is small, bisect the coarsest graph greedily, then uncoarsen while
// refining the cut with FM passes at every level; the best of
// `PartitionOptions::attempts` (default two) independent runs wins. Each FM
// pass is seeded with the boundary vertices (interior ones join when a
// neighbor moves) and ends when its heap empties or it is more than 200
// moves past its best cut. Unlike METIS it has no graph compression (the
// three dofs of an elasticity node stay three vertices) and no bounded,
// boundary-only refinement at the fine levels.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "support/prng.h"
#include "support/types.h"

namespace parfact {

/// An edge bisection: side[v] in {0, 1}. After separator extraction, side[v]
/// may also be 2 (vertex belongs to the separator).
struct Bisection {
  std::vector<signed char> side;
  count_t cut = 0;               ///< total weight of edges between sides
  count_t side_weight[2] = {0, 0};

  [[nodiscard]] double balance() const {
    const count_t total = side_weight[0] + side_weight[1];
    if (total == 0) return 1.0;
    return 2.0 * static_cast<double>(
                     std::max(side_weight[0], side_weight[1])) /
           static_cast<double>(total);
  }
};

struct PartitionOptions {
  /// Allowed imbalance: max side weight <= (1+tol)/2 * total.
  double balance_tol = 0.2;
  /// Stop coarsening when at most this many vertices remain.
  index_t coarse_target = 96;
  /// FM passes per level.
  int fm_passes = 6;
  /// Independent multilevel attempts; the best cut wins.
  int attempts = 2;
};

/// Recomputes `cut` and `side_weight` from `side` (checks consistency).
void recompute_bisection_stats(const Graph& g, Bisection* b);

/// Grows side 0 from a pseudo-peripheral vertex until it holds half the
/// vertex weight; remaining vertices form side 1.
[[nodiscard]] Bisection greedy_grow_bisection(const Graph& g, Prng& rng);

/// FM refinement: up to `opts.fm_passes` hill-climbing passes that each
/// start from the boundary vertices, move the highest-gain vertex that keeps
/// balance within `opts.balance_tol` (ties: larger vertex id), lock it, and
/// keep the best prefix of the pass; a pass stops 200 moves past its best.
/// Gains are exact and updated incrementally per move on an indexed max-heap.
/// Requires positive edge weights. Updates b in place.
void fm_refine(const Graph& g, const PartitionOptions& opts, Bisection* b);

/// Heavy-edge matching coarsening step. Returns the coarse graph and fills
/// `cmap` (fine vertex -> coarse vertex). Returns a graph with n == g.n when
/// no coarsening was possible (caller should stop).
[[nodiscard]] Graph coarsen(const Graph& g, Prng& rng,
                            std::vector<index_t>* cmap);

/// Full multilevel bisection of a connected or disconnected graph.
[[nodiscard]] Bisection multilevel_bisection(const Graph& g,
                                             const PartitionOptions& opts,
                                             Prng& rng);

/// Converts an edge bisection into a vertex separator using a greedy vertex
/// cover of the cut edges. Marks separator vertices with side 2 and returns
/// their list. After the call no 0-1 edge remains.
[[nodiscard]] std::vector<index_t> vertex_separator(const Graph& g,
                                                    Bisection* b);

}  // namespace parfact
