#include "graph/graph.h"

#include <algorithm>

#include "support/error.h"

namespace parfact {

count_t Graph::total_vertex_weight() const {
  count_t w = 0;
  for (index_t v : vwgt) w += v;
  return w;
}

void Graph::validate() const {
  PARFACT_CHECK(n >= 0);
  PARFACT_CHECK(adj_ptr.size() == static_cast<std::size_t>(n) + 1);
  PARFACT_CHECK(adj_ptr.front() == 0);
  PARFACT_CHECK(adj.size() == static_cast<std::size_t>(adj_ptr.back()));
  PARFACT_CHECK(ewgt.size() == adj.size());
  PARFACT_CHECK(vwgt.size() == static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    PARFACT_CHECK(adj_ptr[v] <= adj_ptr[v + 1]);
    for (index_t p = adj_ptr[v]; p < adj_ptr[v + 1]; ++p) {
      const index_t u = adj[p];
      PARFACT_CHECK_MSG(u >= 0 && u < n && u != v,
                        "bad neighbor " << u << " of vertex " << v);
      if (p > adj_ptr[v]) PARFACT_CHECK(adj[p - 1] < u);
      // Symmetry: u's list must contain v with the same edge weight.
      const auto nb = neighbors(u);
      const auto it = std::lower_bound(nb.begin(), nb.end(), v);
      PARFACT_CHECK_MSG(it != nb.end() && *it == v,
                        "edge " << v << "-" << u << " not symmetric");
      const index_t q = adj_ptr[u] + static_cast<index_t>(it - nb.begin());
      PARFACT_CHECK(ewgt[p] == ewgt[q]);
    }
  }
}

Graph graph_from_pattern(const SparseMatrix& a) {
  PARFACT_CHECK(a.rows == a.cols);
  const index_t n = a.rows;
  // Scatter both directions of each off-diagonal entry into per-vertex
  // buckets. Full-stored input lands every edge twice in each bucket, so
  // the bucket total (twice the stored entries) is counted in count_t.
  std::vector<count_t> bucket_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      const index_t i = a.row_ind[p];
      if (i == j) continue;
      ++bucket_ptr[i + 1];
      ++bucket_ptr[j + 1];
    }
  }
  for (index_t v = 0; v < n; ++v) bucket_ptr[v + 1] += bucket_ptr[v];
  std::vector<index_t> bucket(static_cast<std::size_t>(bucket_ptr[n]));
  std::vector<count_t> next(bucket_ptr.begin(), bucket_ptr.end() - 1);
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      const index_t i = a.row_ind[p];
      if (i == j) continue;
      bucket[next[i]++] = j;
      bucket[next[j]++] = i;
    }
  }

  // A vertex's degree is the number of distinct entries in its bucket;
  // last_writer[u] == v marks u as already seen while scanning v's bucket.
  Graph g;
  g.n = n;
  g.adj_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> last_writer(static_cast<std::size_t>(n), kNone);
  for (index_t v = 0; v < n; ++v) {
    for (count_t p = bucket_ptr[v]; p < bucket_ptr[v + 1]; ++p) {
      if (last_writer[bucket[p]] == v) continue;
      last_writer[bucket[p]] = v;
      ++g.adj_ptr[v + 1];
    }
  }
  for (index_t v = 0; v < n; ++v) g.adj_ptr[v + 1] += g.adj_ptr[v];

  // Fill by transposing the (symmetric) buckets: visiting v in ascending
  // order and appending v to each distinct neighbor's list leaves every
  // list sorted.
  g.adj.resize(static_cast<std::size_t>(g.adj_ptr[n]));
  std::copy(g.adj_ptr.begin(), g.adj_ptr.end() - 1, next.begin());
  std::fill(last_writer.begin(), last_writer.end(), kNone);
  for (index_t v = 0; v < n; ++v) {
    for (count_t p = bucket_ptr[v]; p < bucket_ptr[v + 1]; ++p) {
      const index_t u = bucket[p];
      if (last_writer[u] == v) continue;
      last_writer[u] = v;
      g.adj[next[u]++] = v;
    }
  }
  g.vwgt.assign(static_cast<std::size_t>(n), 1);
  g.ewgt.assign(g.adj.size(), 1);
  return g;
}

Graph induced_subgraph(const Graph& g, std::span<const index_t> vertices,
                       std::vector<index_t>& local_of) {
  PARFACT_CHECK(local_of.size() == static_cast<std::size_t>(g.n));
  Graph s;
  s.n = static_cast<index_t>(vertices.size());
  for (index_t i = 0; i < s.n; ++i) {
    PARFACT_DCHECK(local_of[vertices[i]] == kNone);
    local_of[vertices[i]] = i;
  }
  s.adj_ptr.assign(static_cast<std::size_t>(s.n) + 1, 0);
  s.vwgt.resize(static_cast<std::size_t>(s.n));
  for (index_t i = 0; i < s.n; ++i) {
    const index_t v = vertices[i];
    s.vwgt[i] = g.vwgt[v];
    for (index_t u : g.neighbors(v)) {
      if (local_of[u] != kNone) ++s.adj_ptr[i + 1];
    }
  }
  for (index_t i = 0; i < s.n; ++i) s.adj_ptr[i + 1] += s.adj_ptr[i];
  s.adj.resize(static_cast<std::size_t>(s.adj_ptr.back()));
  s.ewgt.resize(s.adj.size());
  // Local ids are not monotone in global ids, so fill by transpose: visiting
  // local ids in ascending order and appending i to each neighbor's list
  // leaves every list sorted. Symmetry makes the transpose the graph itself.
  std::vector<index_t> next(s.adj_ptr.begin(), s.adj_ptr.end() - 1);
  for (index_t i = 0; i < s.n; ++i) {
    const index_t v = vertices[i];
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t lu = local_of[g.adj[p]];
      if (lu == kNone) continue;
      s.adj[next[lu]] = i;
      s.ewgt[next[lu]++] = g.ewgt[p];
    }
  }
  for (index_t v : vertices) local_of[v] = kNone;
  return s;
}

}  // namespace parfact
