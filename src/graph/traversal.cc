#include "graph/traversal.h"

#include <algorithm>

#include "support/error.h"

namespace parfact {

std::vector<index_t> bfs_levels(const Graph& g, index_t source) {
  PARFACT_CHECK(source >= 0 && source < g.n);
  std::vector<index_t> level(static_cast<std::size_t>(g.n), kNone);
  std::vector<index_t> frontier{source};
  level[source] = 0;
  index_t depth = 0;
  std::vector<index_t> next;
  while (!frontier.empty()) {
    ++depth;
    next.clear();
    for (index_t v : frontier) {
      for (index_t u : g.neighbors(v)) {
        if (level[u] == kNone) {
          level[u] = depth;
          next.push_back(u);
        }
      }
    }
    frontier.swap(next);
  }
  return level;
}

index_t pseudo_peripheral_vertex(const Graph& g, index_t seed) {
  PARFACT_CHECK(seed >= 0 && seed < g.n);
  index_t v = seed;
  index_t best_ecc = -1;
  // George–Liu: repeatedly jump to a smallest-degree vertex in the deepest
  // BFS level until the eccentricity stops increasing.
  for (int iter = 0; iter < 8; ++iter) {
    const std::vector<index_t> level = bfs_levels(g, v);
    index_t ecc = 0;
    for (index_t l : level) ecc = std::max(ecc, l == kNone ? index_t{0} : l);
    if (ecc <= best_ecc) break;
    best_ecc = ecc;
    index_t candidate = v;
    index_t candidate_deg = kIndexMax;
    for (index_t u = 0; u < g.n; ++u) {
      if (level[u] == ecc && g.degree(u) < candidate_deg) {
        candidate = u;
        candidate_deg = g.degree(u);
      }
    }
    v = candidate;
  }
  return v;
}

}  // namespace parfact
