// Fill-reducing orderings.
//
// All functions return a permutation `perm` with perm[new_index] = old_index;
// apply with permute_lower(A, perm). Nested dissection is the ordering
// the parallel solver uses (its separator tree becomes the top of the
// parallel task tree); minimum degree is the classic sequential alternative
// (and orders the small leaf subgraphs inside ND); RCM is the
// bandwidth-reducing baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "support/types.h"

namespace parfact {

struct OrderingOptions {
  /// Subgraphs at or below this size stop the ND recursion.
  index_t nd_leaf_size = 64;
  /// Order ND leaves with minimum degree (true) or leave them in place.
  bool leaf_minimum_degree = true;
  /// Multilevel partitioner knobs.
  PartitionOptions partition;
  /// PRNG seed (ND is randomized via the partitioner).
  std::uint64_t seed = 1;
};

/// Multilevel nested dissection.
[[nodiscard]] std::vector<index_t> nested_dissection(
    const Graph& g, const OrderingOptions& opts = {});

/// Exact-external-degree minimum degree on a quotient graph with element
/// absorption. Suitable for graphs up to a few hundred thousand vertices.
[[nodiscard]] std::vector<index_t> minimum_degree(const Graph& g);

/// Reverse Cuthill–McKee.
[[nodiscard]] std::vector<index_t> rcm(const Graph& g);

}  // namespace parfact
