#include <algorithm>
#include <numeric>

#include "graph/ordering.h"
#include "graph/partition.h"
#include "support/error.h"
#include "support/prng.h"

namespace parfact {
namespace {

/// Recursive worker. `vertices` holds the global ids of the subgraph to
/// order; the ordering of that subgraph is written to positions
/// [out_begin, out_begin + vertices.size()) of `perm`. Every bisection
/// refines in one FM workspace, whose storage grows to the largest graph
/// it refines: the input graph itself.
class NestedDissector {
 public:
  NestedDissector(const Graph& g, const OrderingOptions& opts)
      : g_(g),
        opts_(opts),
        rng_(opts.seed),
        local_of_(static_cast<std::size_t>(g.n), kNone),
        perm_(static_cast<std::size_t>(g.n), kNone) {}

  std::vector<index_t> run() {
    std::vector<index_t> all(static_cast<std::size_t>(g_.n));
    std::iota(all.begin(), all.end(), 0);
    dissect(std::move(all), 0);
    return std::move(perm_);
  }

 private:
  void order_leaf(const std::vector<index_t>& vertices, index_t out_begin) {
    if (opts_.leaf_minimum_degree &&
        static_cast<index_t>(vertices.size()) > 2) {
      const Graph sub = induced_subgraph(g_, vertices, local_of_);
      const std::vector<index_t> sub_perm = minimum_degree(sub);
      for (std::size_t k = 0; k < vertices.size(); ++k) {
        perm_[out_begin + static_cast<index_t>(k)] = vertices[sub_perm[k]];
      }
    } else {
      for (std::size_t k = 0; k < vertices.size(); ++k) {
        perm_[out_begin + static_cast<index_t>(k)] = vertices[k];
      }
    }
  }

  void dissect(std::vector<index_t> vertices, index_t out_begin) {
    const auto n_sub = static_cast<index_t>(vertices.size());
    if (n_sub <= opts_.nd_leaf_size) {
      order_leaf(vertices, out_begin);
      return;
    }

    const Graph sub = induced_subgraph(g_, vertices, local_of_);
    Bisection b = multilevel_bisection(sub, opts_.partition, rng_, &fm_);
    const std::vector<index_t> sep = vertex_separator(sub, &b);

    // A degenerate split (everything in the separator or one side empty and
    // no separator) cannot make progress; fall back to a leaf ordering.
    std::vector<index_t> part[2];
    for (index_t v = 0; v < sub.n; ++v) {
      if (b.side[v] != 2) part[b.side[v]].push_back(vertices[v]);
    }
    if (part[0].empty() || part[1].empty()) {
      order_leaf(vertices, out_begin);
      return;
    }

    // Order: part 0, part 1, then separator last (it is the elimination-tree
    // root of this subproblem).
    const auto n0 = static_cast<index_t>(part[0].size());
    const auto n1 = static_cast<index_t>(part[1].size());
    index_t sep_begin = out_begin + n0 + n1;
    for (index_t s : sep) {
      perm_[sep_begin++] = vertices[s];
    }
    // Recurse. Free the parent's vertex list before descending to bound
    // peak memory to O(n log n) -> O(n) per level.
    std::vector<index_t> p0 = std::move(part[0]);
    std::vector<index_t> p1 = std::move(part[1]);
    vertices.clear();
    vertices.shrink_to_fit();
    dissect(std::move(p0), out_begin);
    dissect(std::move(p1), out_begin + n0);
  }

  const Graph& g_;
  const OrderingOptions& opts_;
  Prng rng_;
  std::vector<index_t> local_of_;
  std::vector<index_t> perm_;
  FmWorkspace fm_;
};

}  // namespace

std::vector<index_t> nested_dissection(const Graph& g,
                                       const OrderingOptions& opts) {
  if (g.n == 0) return {};
  NestedDissector nd(g, opts);
  std::vector<index_t> perm = nd.run();
  PARFACT_CHECK(std::count(perm.begin(), perm.end(), kNone) == 0);
  return perm;
}

}  // namespace parfact
