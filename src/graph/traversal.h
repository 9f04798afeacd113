// Breadth-first traversals: BFS levels and pseudo-peripheral seeds.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "support/types.h"

namespace parfact {

/// BFS from `source`; returns the level of every vertex (kNone = unreachable).
[[nodiscard]] std::vector<index_t> bfs_levels(const Graph& g, index_t source);

/// A vertex of (approximately) maximal eccentricity in the component of
/// `seed`, found by the George–Liu repeated-BFS heuristic. Used to seed both
/// the graph-growing bisection and RCM.
[[nodiscard]] index_t pseudo_peripheral_vertex(const Graph& g, index_t seed);

}  // namespace parfact
