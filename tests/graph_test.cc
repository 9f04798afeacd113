// Tests for the graph module: structure, traversal, partitioning, orderings.
#include <algorithm>
#include <numeric>
#include <queue>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/ordering.h"
#include "graph/partition.h"
#include "graph/traversal.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/checksum.h"
#include "support/prng.h"

namespace parfact {
namespace {

Graph path_graph(index_t n) {
  TripletBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) b.add(i, i, 1.0);
  for (index_t i = 1; i < n; ++i) b.add(i, i - 1, -1.0);
  return graph_from_pattern(b.build());
}

TEST(Graph, FromLowerPattern) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(4, 3, 5));
  g.validate();
  EXPECT_EQ(g.n, 12);
  // 2-D grid edges: (nx-1)*ny + nx*(ny-1).
  EXPECT_EQ(g.edge_count(), 3 * 3 + 4 * 2);
}

TEST(Graph, FromFullPatternMatchesLower) {
  const SparseMatrix low = grid_laplacian_2d(5, 5, 9);
  const Graph g1 = graph_from_pattern(low);
  const Graph g2 = graph_from_pattern(symmetrize_full(low));
  EXPECT_EQ(g1.adj_ptr, g2.adj_ptr);
  EXPECT_EQ(g1.adj, g2.adj);
}

TEST(Graph, IgnoresDiagonalAndDuplicates) {
  TripletBuilder b(3, 3);
  b.add(0, 0, 5.0);
  b.add(1, 0, 1.0);
  b.add(0, 1, 1.0);  // duplicate edge in other triangle
  const Graph g = graph_from_pattern(b.build());
  g.validate();
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(Graph, InducedSubgraph) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(4, 4, 5));
  std::vector<index_t> local_of(static_cast<std::size_t>(g.n), kNone);
  // First 2x4 rows of the grid: vertices 0..7.
  std::vector<index_t> verts{0, 1, 2, 3, 4, 5, 6, 7};
  const Graph s = induced_subgraph(g, verts, local_of);
  s.validate();
  EXPECT_EQ(s.n, 8);
  EXPECT_EQ(s.edge_count(), 3 + 3 + 4);  // two rows + vertical links
  // Scratch restored.
  EXPECT_TRUE(std::all_of(local_of.begin(), local_of.end(),
                          [](index_t v) { return v == kNone; }));
}

TEST(Traversal, BfsLevelsOnPath) {
  const Graph g = path_graph(5);
  const auto level = bfs_levels(g, 0);
  for (index_t i = 0; i < 5; ++i) EXPECT_EQ(level[i], i);
}

TEST(Traversal, PseudoPeripheralOnPathIsEndpoint) {
  const Graph g = path_graph(9);
  const index_t v = pseudo_peripheral_vertex(g, 4);
  EXPECT_TRUE(v == 0 || v == 8);
}

TEST(Partition, GreedyGrowBalances) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(16, 16, 5));
  Prng rng(1);
  const Bisection b = greedy_grow_bisection(g, rng);
  EXPECT_EQ(b.side_weight[0] + b.side_weight[1], g.n);
  EXPECT_LE(b.balance(), 1.2);
  EXPECT_GT(b.cut, 0);
}

TEST(Partition, FmRefineNeverWorsensCut) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(20, 20, 5));
  Prng rng(2);
  Bisection b = greedy_grow_bisection(g, rng);
  const count_t before = b.cut;
  PartitionOptions opts;
  fm_refine(g, opts, &b);
  EXPECT_LE(b.cut, before);
  Bisection check = b;
  recompute_bisection_stats(g, &check);
  EXPECT_EQ(check.cut, b.cut);
  EXPECT_EQ(check.side_weight[0], b.side_weight[0]);
}

TEST(Partition, CoarsenPreservesTotalWeight) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(12, 12, 5));
  Prng rng(3);
  std::vector<index_t> cmap;
  const Graph c = coarsen(g, rng, &cmap);
  c.validate();
  EXPECT_LT(c.n, g.n);
  EXPECT_GE(c.n, g.n / 2);
  EXPECT_EQ(c.total_vertex_weight(), g.total_vertex_weight());
  for (index_t v = 0; v < g.n; ++v) {
    ASSERT_GE(cmap[v], 0);
    ASSERT_LT(cmap[v], c.n);
  }
}

TEST(Partition, MultilevelBisectionOnGridIsDecent) {
  // A k x k grid has a bisection of width ~k; the multilevel partitioner
  // should find a cut within a small factor of that.
  const index_t k = 32;
  const Graph g = graph_from_pattern(grid_laplacian_2d(k, k, 5));
  Prng rng(4);
  PartitionOptions opts;
  const Bisection b = multilevel_bisection(g, opts, rng);
  EXPECT_LE(b.balance(), 1.0 + opts.balance_tol + 1e-9);
  EXPECT_LE(b.cut, 3 * k);
  EXPECT_GE(b.cut, k - 1);
}

TEST(Partition, VertexSeparatorSeparates) {
  const Graph g = graph_from_pattern(grid_laplacian_2d(16, 16, 5));
  Prng rng(5);
  PartitionOptions opts;
  Bisection b = multilevel_bisection(g, opts, rng);
  const auto sep = vertex_separator(g, &b);
  EXPECT_FALSE(sep.empty());
  // No remaining 0-1 edge.
  for (index_t v = 0; v < g.n; ++v) {
    if (b.side[v] == 2) continue;
    for (index_t u : g.neighbors(v)) {
      if (b.side[u] == 2) continue;
      EXPECT_EQ(b.side[u], b.side[v]);
    }
  }
  // Separator of a 16x16 grid should be around 16, certainly below 50.
  EXPECT_LE(static_cast<index_t>(sep.size()), 50);
}

// --- Orderings --------------------------------------------------------------

void expect_valid_ordering(const std::vector<index_t>& perm, index_t n) {
  ASSERT_EQ(static_cast<index_t>(perm.size()), n);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(Ordering, NestedDissectionIsPermutation) {
  const SparseMatrix a = grid_laplacian_2d(20, 17, 5);
  const Graph g = graph_from_pattern(a);
  const auto perm = nested_dissection(g);
  expect_valid_ordering(perm, g.n);
}

TEST(Ordering, NestedDissectionHandlesDisconnected) {
  TripletBuilder b(10, 10);
  for (index_t i = 0; i < 10; ++i) b.add(i, i, 1.0);
  for (index_t i = 1; i < 5; ++i) b.add(i, i - 1, -1.0);
  for (index_t i = 6; i < 10; ++i) b.add(i, i - 1, -1.0);
  OrderingOptions opts;
  opts.nd_leaf_size = 2;
  const auto perm = nested_dissection(graph_from_pattern(b.build()), opts);
  expect_valid_ordering(perm, 10);
}

TEST(Ordering, NestedDissectionTinyGraph) {
  const auto perm = nested_dissection(path_graph(3));
  expect_valid_ordering(perm, 3);
  EXPECT_TRUE(nested_dissection(path_graph(1)).size() == 1);
}

TEST(Ordering, MinimumDegreeIsPermutation) {
  const auto perm = minimum_degree(graph_from_pattern(
      grid_laplacian_2d(15, 15, 5)));
  expect_valid_ordering(perm, 225);
}

TEST(Ordering, MinimumDegreeOnPathEliminatesEndpointsFirst) {
  // On a path, degree-1 endpoints must be eliminated before any interior
  // vertex of degree 2 becomes available only through elimination.
  const auto perm = minimum_degree(path_graph(8));
  expect_valid_ordering(perm, 8);
  EXPECT_TRUE(perm[0] == 0 || perm[0] == 7);
}

TEST(Ordering, MinimumDegreeStarCenterLast) {
  // Star graph: leaves have degree 1, center degree n-1. MD eliminates all
  // leaves first.
  const index_t n = 12;
  TripletBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) b.add(i, i, 1.0);
  for (index_t i = 1; i < n; ++i) b.add(i, 0, -1.0);
  const auto perm = minimum_degree(graph_from_pattern(b.build()));
  // The center must survive until the final tie with the last leaf.
  EXPECT_TRUE(perm.back() == 0 || perm[perm.size() - 2] == 0);
}

TEST(Ordering, RcmIsPermutationAndReducesBandwidth) {
  Prng rng(9);
  // Random sparse symmetric graph.
  const SparseMatrix a = random_spd(120, 3, 17);
  const Graph g = graph_from_pattern(a);
  const auto perm = rcm(g);
  expect_valid_ordering(perm, g.n);
  const auto inv = invert_permutation(perm);
  count_t band_before = 0, band_after = 0;
  for (index_t v = 0; v < g.n; ++v) {
    for (index_t u : g.neighbors(v)) {
      band_before = std::max<count_t>(band_before, std::abs(u - v));
      band_after =
          std::max<count_t>(band_after, std::abs(inv[u] - inv[v]));
    }
  }
  EXPECT_LT(band_after, band_before);
}

TEST(Ordering, RcmOnPathIsMonotone) {
  const auto perm = rcm(path_graph(6));
  expect_valid_ordering(perm, 6);
  // A path relabeled by RCM must remain a path with bandwidth 1.
  const auto inv = invert_permutation(perm);
  for (index_t i = 1; i < 6; ++i) {
    EXPECT_EQ(std::abs(inv[i] - inv[i - 1]), 1);
  }
}

class OrderingSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingSeedTest, NdValidAcrossSeeds) {
  const Graph g = graph_from_pattern(grid_laplacian_3d(7, 7, 7, 7));
  OrderingOptions opts;
  opts.seed = GetParam();
  const auto perm = nested_dissection(g, opts);
  expect_valid_ordering(perm, g.n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingSeedTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 12345u));

// --- Ordering identity -------------------------------------------------------
//
// The partitioner's data structures (gain-bucket queue, sort-free builders)
// are speed choices only: every ND permutation must equal the one that the
// reference lazy-heap FM and sort-based builders below give. The constants
// are fnv1a digests of those permutations.

std::uint64_t fingerprint(const std::vector<index_t>& perm) {
  return fnv1a(perm.data(), perm.size() * sizeof(index_t));
}

SparseMatrix relabeled(const SparseMatrix& lower, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<index_t> perm(static_cast<std::size_t>(lower.rows));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  return lower_triangle(permute_symmetric(symmetrize_full(lower), perm));
}

/// Lower-stored block diagonal of two lower-stored matrices.
SparseMatrix block_diagonal(const SparseMatrix& a, const SparseMatrix& b) {
  TripletBuilder t(a.rows + b.rows, a.cols + b.cols);
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      t.add(a.row_ind[p], j, a.values[p]);
    }
  }
  for (index_t j = 0; j < b.cols; ++j) {
    for (index_t p = b.col_ptr[j]; p < b.col_ptr[j + 1]; ++p) {
      t.add(a.rows + b.row_ind[p], a.cols + j, b.values[p]);
    }
  }
  return t.build();
}

/// Lower-stored 2-D grid Laplacian plus one hub vertex (the last)
/// adjacent to every grid vertex.
SparseMatrix arrowhead(index_t nx, index_t ny) {
  const SparseMatrix grid = grid_laplacian_2d(nx, ny, 5);
  const index_t hub = grid.rows;
  TripletBuilder t(hub + 1, hub + 1);
  for (index_t j = 0; j < grid.cols; ++j) {
    for (index_t p = grid.col_ptr[j]; p < grid.col_ptr[j + 1]; ++p) {
      t.add(grid.row_ind[p], j, grid.values[p]);
    }
    t.add(hub, j, -1.0);
  }
  t.add(hub, hub, static_cast<real_t>(hub) + 1.0);
  return t.build();
}

struct FingerprintCase {
  const char* name;
  SparseMatrix (*make)();
  std::uint64_t serial;
};

const FingerprintCase kFingerprintCases[] = {
    {"grid2d_30x30", [] { return grid_laplacian_2d(30, 30, 5); },
     0x621de38a21b7c5b9ull},
    {"grid3d_10", [] { return grid_laplacian_3d(10, 10, 10, 7); },
     0x138f459ea6527e6dull},
    {"elasticity_5", [] { return elasticity_3d(5, 5, 5); },
     0xae4b21ed44a669b9ull},
    {"grid3d_10_relabeled",
     [] { return relabeled(grid_laplacian_3d(10, 10, 10, 7), 17); },
     0x073e39c08bc54691ull},
    {"two_components",
     [] {
       return block_diagonal(grid_laplacian_2d(20, 14, 5),
                             grid_laplacian_3d(7, 7, 7, 7));
     },
     0x3bc2d19f4534c800ull},
    {"arrowhead_30x30", [] { return arrowhead(30, 30); },
     0x5debfd792d9b9294ull},
};

TEST(OrderingIdentity, NestedDissectionFingerprints) {
  for (const FingerprintCase& c : kFingerprintCases) {
    SCOPED_TRACE(c.name);
    const Graph g = graph_from_pattern(c.make());
    const OrderingOptions opts;
    EXPECT_EQ(fingerprint(nested_dissection(g, opts)), c.serial);
  }
}

// Reference FM: the lazy max-heap of (gain, vertex) with a full gain
// recompute for every neighbor of a moved vertex. fm_refine must make the
// same moves.
count_t reference_move_gain(const Graph& g, const Bisection& b, index_t v) {
  count_t gain = 0;
  for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
    gain += (b.side[g.adj[p]] != b.side[v]) ? g.ewgt[p] : -g.ewgt[p];
  }
  return gain;
}

void reference_fm_refine(const Graph& g, const PartitionOptions& opts,
                         Bisection* b) {
  const count_t total = b->side_weight[0] + b->side_weight[1];
  const auto max_side = static_cast<count_t>(
      (1.0 + opts.balance_tol) / 2.0 * static_cast<double>(total));
  std::vector<char> locked(static_cast<std::size_t>(g.n));
  std::vector<count_t> gain(static_cast<std::size_t>(g.n));
  for (int pass = 0; pass < opts.fm_passes; ++pass) {
    std::fill(locked.begin(), locked.end(), 0);
    std::priority_queue<std::pair<count_t, index_t>> heap;
    for (index_t v = 0; v < g.n; ++v) {
      gain[v] = reference_move_gain(g, *b, v);
      bool boundary = false;
      for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1] && !boundary; ++p) {
        boundary = b->side[g.adj[p]] != b->side[v];
      }
      if (boundary) heap.emplace(gain[v], v);
    }
    count_t best_improvement = 0;
    count_t improvement = 0;
    std::vector<index_t> moved;
    std::size_t best_prefix = 0;
    while (!heap.empty()) {
      const auto [gv, v] = heap.top();
      heap.pop();
      if (locked[v] || gv != gain[v]) continue;
      const int from = b->side[v];
      const int to = 1 - from;
      if (b->side_weight[to] + g.vwgt[v] > max_side) continue;
      locked[v] = 1;
      b->side[v] = static_cast<signed char>(to);
      b->side_weight[from] -= g.vwgt[v];
      b->side_weight[to] += g.vwgt[v];
      improvement += gv;
      moved.push_back(v);
      if (improvement > best_improvement) {
        best_improvement = improvement;
        best_prefix = moved.size();
      }
      for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
        const index_t u = g.adj[p];
        if (locked[u]) continue;
        gain[u] = reference_move_gain(g, *b, u);
        heap.emplace(gain[u], u);
      }
      if (moved.size() > best_prefix + 200 && improvement < best_improvement) {
        break;
      }
    }
    for (std::size_t k = moved.size(); k > best_prefix; --k) {
      const index_t v = moved[k - 1];
      const int cur = b->side[v];
      b->side[v] = static_cast<signed char>(1 - cur);
      b->side_weight[cur] -= g.vwgt[v];
      b->side_weight[1 - cur] += g.vwgt[v];
    }
    b->cut -= best_improvement;
    if (best_improvement == 0) break;
  }
}

TEST(OrderingIdentity, FmRefineMatchesLazyHeapReference) {
  // Tight tolerances force balance rejections, the one place where a lazy
  // heap and an indexed one could part ways.
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("grid2d",
                      graph_from_pattern(grid_laplacian_2d(20, 20, 5)));
  graphs.emplace_back("grid3d",
                      graph_from_pattern(grid_laplacian_3d(7, 7, 7, 7)));
  graphs.emplace_back("elasticity",
                      graph_from_pattern(elasticity_3d(3, 3, 3)));
  {
    Prng rng(99);
    std::vector<index_t> cmap;
    graphs.emplace_back(
        "coarsened",
        coarsen(graph_from_pattern(grid_laplacian_2d(30, 30, 9)), rng, &cmap));
  }
  // The hub's weighted degree exceeds the queue's bucket bound, so it moves
  // through the heavy-vertex heap; in the coarsened copy it does so among
  // weighted vertices and edges.
  graphs.emplace_back("arrowhead", graph_from_pattern(arrowhead(20, 20)));
  {
    Prng rng(5);
    std::vector<index_t> cmap;
    Graph g = graph_from_pattern(arrowhead(40, 40));
    for (int level = 0; level < 3; ++level) g = coarsen(g, rng, &cmap);
    graphs.emplace_back("arrowhead_coarsened_3x", std::move(g));
  }
  FmWorkspace ws;  // reused across graphs, as nested dissection does
  for (const auto& [name, g] : graphs) {
    for (const double tol : {0.02, 0.05, 0.2}) {
      PartitionOptions opts;
      opts.balance_tol = tol;
      for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << name << " tol=" << tol << " seed=" << seed);
        Prng rng(seed);
        Bisection fast = greedy_grow_bisection(g, rng);
        Bisection ref = fast;
        fm_refine(g, opts, &fast, &ws);
        reference_fm_refine(g, opts, &ref);
        if (std::string_view(name).starts_with("arrowhead")) {
          ASSERT_LT(ws.queue.bound(),
                    *std::max_element(ws.wdeg.begin(), ws.wdeg.end()));
        }
        ASSERT_EQ(fast.side, ref.side);
        ASSERT_EQ(fast.cut, ref.cut);
        ASSERT_EQ(fast.side_weight[0], ref.side_weight[0]);
        ASSERT_EQ(fast.side_weight[1], ref.side_weight[1]);
      }
    }
  }
}

// GainQueue against a reference model, a std::set of (gain, vertex) keys:
// seeded random sequences of inserts, re-keys, pops that park or lock the
// vertex, gain changes of unqueued vertices, clears and resets to a new
// graph. Some vertices are heavier than the bucket bound, and some graphs
// have more than 4096 vertices, so the summary words and their hints span
// more than one word. Every pop must return the model's maximum.
TEST(OrderingIdentity, GainQueueMatchesOrderedSetModel) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Prng rng(seed);
    GainQueue queue;
    std::vector<count_t> gain;
    std::vector<count_t> wdeg;
    for (int graph = 0; graph < 4; ++graph) {
      const index_t n = rng.next_below(4) == 0
                            ? 4000 + rng.next_index(2000)
                            : 1 + rng.next_index(300);
      wdeg.assign(static_cast<std::size_t>(n), 0);
      gain.assign(static_cast<std::size_t>(n), 0);
      for (index_t v = 0; v < n; ++v) {
        // Mostly light; one vertex in eight far above any bound.
        wdeg[v] = rng.next_below(8) == 0 ? 1000 + rng.next_index(100000)
                                         : rng.next_index(40);
      }
      // A small total weight caps the bound below some light-looking
      // degrees too.
      const count_t weight = 1 + rng.next_index(3 * n);
      queue.reset(gain, wdeg, weight);
      std::set<std::pair<count_t, index_t>> model;
      std::vector<char> queued(static_cast<std::size_t>(n), 0);
      std::vector<char> locked(static_cast<std::size_t>(n), 0);
      const auto new_gain = [&](index_t v) {
        gain[v] = static_cast<count_t>(rng.next_below(
                      static_cast<std::uint64_t>(2 * wdeg[v] + 1))) -
                  wdeg[v];
      };
      for (int op = 0; op < 3000; ++op) {
        const std::uint64_t kind = rng.next_below(16);
        if (kind < 8) {  // insert or re-key
          const index_t v = rng.next_index(n);
          if (queued[v]) model.erase({gain[v], v});
          new_gain(v);
          queue.update(v);
          if (!locked[v]) {
            model.emplace(gain[v], v);
            queued[v] = 1;
          }
        } else if (kind < 9) {  // gain change of an unqueued vertex
          const index_t v = rng.next_index(n);
          if (!queued[v]) new_gain(v);
        } else if (kind < 15) {  // pop; the vertex is parked or locked
          const index_t v = queue.pop();
          if (model.empty()) {
            ASSERT_EQ(v, kNone) << "op " << op;
            continue;
          }
          const auto top = *model.rbegin();
          ASSERT_EQ(v, top.second) << "op " << op;
          model.erase(top);
          queued[v] = 0;
          if (rng.next_below(2) == 0) {
            queue.lock(v);
            locked[v] = 1;
          }
        } else if (rng.next_below(8) == 0) {
          queue.clear();
          model.clear();
          std::fill(queued.begin(), queued.end(), 0);
          std::fill(locked.begin(), locked.end(), 0);
        }
      }
      // Drain what is left in order.
      while (!model.empty()) {
        const auto top = *model.rbegin();
        ASSERT_EQ(queue.pop(), top.second);
        model.erase(top);
      }
      ASSERT_EQ(queue.pop(), kNone);
      // Half the time the next reset finds the queue in use.
      if (rng.next_below(2) == 0) {
        for (index_t v = 0; v < n; v += 3) queue.update(v);
      }
    }
  }
}

// Reference builders: collect (vertex, neighbor, weight) triples, sort them,
// and merge duplicates.
Graph graph_from_sorted_triples(
    index_t n, std::vector<index_t> vwgt,
    std::vector<std::tuple<index_t, index_t, index_t>> edges) {
  std::sort(edges.begin(), edges.end());
  Graph g;
  g.n = n;
  g.vwgt = std::move(vwgt);
  g.adj_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t k = 0; k < edges.size();) {
    const index_t v = std::get<0>(edges[k]);
    const index_t u = std::get<1>(edges[k]);
    index_t w = 0;
    for (; k < edges.size() && std::get<0>(edges[k]) == v &&
           std::get<1>(edges[k]) == u;
         ++k) {
      w += std::get<2>(edges[k]);
    }
    g.adj.push_back(u);
    g.ewgt.push_back(w);
    ++g.adj_ptr[v + 1];
  }
  for (index_t v = 0; v < n; ++v) g.adj_ptr[v + 1] += g.adj_ptr[v];
  return g;
}

void expect_same_graph(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.adj_ptr, b.adj_ptr);
  EXPECT_EQ(a.adj, b.adj);
  EXPECT_EQ(a.vwgt, b.vwgt);
  EXPECT_EQ(a.ewgt, b.ewgt);
}

/// Full-stored copy of `lower` in which every third stored entry of each
/// column appears twice.
SparseMatrix full_with_duplicates(const SparseMatrix& lower) {
  const SparseMatrix full = symmetrize_full(lower);
  SparseMatrix dup(full.rows, full.cols);
  for (index_t j = 0; j < full.cols; ++j) {
    for (index_t p = full.col_ptr[j]; p < full.col_ptr[j + 1]; ++p) {
      const int copies = (p - full.col_ptr[j]) % 3 == 0 ? 2 : 1;
      for (int c = 0; c < copies; ++c) {
        dup.row_ind.push_back(full.row_ind[p]);
        dup.values.push_back(full.values[p]);
      }
    }
    dup.col_ptr[j + 1] = static_cast<index_t>(dup.row_ind.size());
  }
  return dup;
}

TEST(OrderingIdentity, GraphFromPatternMatchesSortedReference) {
  const SparseMatrix inputs[] = {
      grid_laplacian_2d(13, 9, 9), elasticity_3d(2, 3, 2),
      relabeled(grid_laplacian_3d(6, 5, 4, 27), 5), random_spd(150, 4, 3)};
  for (const SparseMatrix& lower : inputs) {
    for (const SparseMatrix& a :
         {lower, symmetrize_full(lower), full_with_duplicates(lower)}) {
      std::vector<std::tuple<index_t, index_t, index_t>> edges;
      for (index_t j = 0; j < a.cols; ++j) {
        for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
          const index_t i = a.row_ind[p];
          if (i == j) continue;
          edges.emplace_back(i, j, 1);
          edges.emplace_back(j, i, 1);
        }
      }
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      const Graph g = graph_from_pattern(a);
      g.validate();
      std::vector<index_t> unit(static_cast<std::size_t>(a.rows), 1);
      expect_same_graph(g, graph_from_sorted_triples(a.rows, std::move(unit),
                                                     std::move(edges)));
    }
  }
}

TEST(OrderingIdentity, CoarsenAndInducedSubgraphMatchSortedReference) {
  Prng rng(11);
  Graph g = graph_from_pattern(grid_laplacian_3d(9, 8, 7, 27));
  for (int level = 0; level < 3; ++level) {
    std::vector<index_t> cmap;
    const Graph c = coarsen(g, rng, &cmap);
    c.validate();
    index_t n_coarse = 0;
    for (index_t cv : cmap) n_coarse = std::max(n_coarse, cv + 1);
    std::vector<index_t> vwgt(static_cast<std::size_t>(n_coarse), 0);
    std::vector<std::tuple<index_t, index_t, index_t>> edges;
    for (index_t v = 0; v < g.n; ++v) {
      vwgt[cmap[v]] += g.vwgt[v];
      for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
        if (cmap[g.adj[p]] != cmap[v]) {
          edges.emplace_back(cmap[v], cmap[g.adj[p]], g.ewgt[p]);
        }
      }
    }
    expect_same_graph(c, graph_from_sorted_triples(n_coarse, std::move(vwgt),
                                                   std::move(edges)));

    // Induced subgraph of the weighted coarse graph on a shuffled subset,
    // so local ids are not monotone in global ids.
    std::vector<index_t> verts;
    for (index_t v = 0; v < c.n; ++v) {
      if (rng.next_below(3) != 0) verts.push_back(v);
    }
    for (std::size_t i = verts.size(); i > 1; --i) {
      std::swap(verts[i - 1], verts[rng.next_below(i)]);
    }
    std::vector<index_t> local_of(static_cast<std::size_t>(c.n), kNone);
    const Graph s = induced_subgraph(c, verts, local_of);
    s.validate();
    for (std::size_t i = 0; i < verts.size(); ++i) {
      local_of[verts[i]] = static_cast<index_t>(i);
    }
    std::vector<index_t> svwgt;
    std::vector<std::tuple<index_t, index_t, index_t>> sedges;
    for (std::size_t i = 0; i < verts.size(); ++i) {
      const index_t v = verts[i];
      svwgt.push_back(c.vwgt[v]);
      for (index_t p = c.adj_ptr[v]; p < c.adj_ptr[v + 1]; ++p) {
        if (local_of[c.adj[p]] != kNone) {
          sedges.emplace_back(static_cast<index_t>(i), local_of[c.adj[p]],
                              c.ewgt[p]);
        }
      }
    }
    expect_same_graph(
        s, graph_from_sorted_triples(static_cast<index_t>(verts.size()),
                                     std::move(svwgt), std::move(sedges)));
    g = c;
  }
}

}  // namespace
}  // namespace parfact
