#include "graph/partition.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <queue>
#include <utility>

#include "graph/traversal.h"
#include "support/error.h"

namespace parfact {

void recompute_bisection_stats(const Graph& g, Bisection* b) {
  PARFACT_CHECK(b->side.size() == static_cast<std::size_t>(g.n));
  b->cut = 0;
  b->side_weight[0] = b->side_weight[1] = 0;
  for (index_t v = 0; v < g.n; ++v) {
    PARFACT_CHECK(b->side[v] == 0 || b->side[v] == 1);
    b->side_weight[b->side[v]] += g.vwgt[v];
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      if (g.adj[p] > v && b->side[g.adj[p]] != b->side[v]) {
        b->cut += g.ewgt[p];
      }
    }
  }
}

Bisection greedy_grow_bisection(const Graph& g, Prng& rng) {
  Bisection b;
  b.side.assign(static_cast<std::size_t>(g.n), 1);
  const count_t total = g.total_vertex_weight();
  const count_t target = total / 2;

  // Grow side 0 as a BFS region from a pseudo-peripheral vertex, preferring
  // frontier vertices with many neighbors already inside (reduces the cut).
  const index_t seed =
      g.n > 0 ? pseudo_peripheral_vertex(g, rng.next_index(g.n)) : 0;
  count_t grown = 0;
  std::vector<index_t> inside_links(static_cast<std::size_t>(g.n), 0);
  // Priority queue keyed by inside-link weight; lazily invalidated.
  std::priority_queue<std::pair<index_t, index_t>> frontier;
  std::vector<char> queued(static_cast<std::size_t>(g.n), 0);
  index_t component_seed = seed;
  while (grown < target) {
    if (frontier.empty()) {
      // Start (or continue into a new component) from an unassigned vertex.
      index_t s = kNone;
      for (index_t v = component_seed; v < g.n; ++v) {
        if (b.side[v] == 1 && !queued[v]) {
          s = v;
          break;
        }
      }
      if (s == kNone) break;
      component_seed = s;
      frontier.emplace(0, s);
      queued[s] = 1;
      continue;
    }
    const auto [links, v] = frontier.top();
    frontier.pop();
    if (b.side[v] == 0) continue;              // already taken
    if (links != inside_links[v]) continue;    // stale entry
    b.side[v] = 0;
    grown += g.vwgt[v];
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      if (b.side[u] == 1) {
        inside_links[u] += g.ewgt[p];
        frontier.emplace(inside_links[u], u);
        queued[u] = 1;
      }
    }
  }
  recompute_bisection_stats(g, &b);
  return b;
}

namespace {

/// Max-heap of vertices keyed by (gain[v], v): one entry per vertex, with
/// each vertex's slot tracked so that a gain change re-sifts the entry in
/// place. Keys are unique, so the pop order is that of any other max-heap
/// on the same keys: highest gain first, ties to the larger vertex id.
class GainHeap {
 public:
  explicit GainHeap(const std::vector<count_t>& gain)
      : gain_(gain), pos_(gain.size(), kNone) {}

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] index_t top() const { return heap_.front(); }

  /// Inserts v, or restores its place after gain[v] changed. Call it after
  /// every single gain change: sifting assumes all other keys are current.
  void update(index_t v) {
    if (pos_[v] == kNone) {
      pos_[v] = static_cast<index_t>(heap_.size());
      heap_.push_back(v);
    }
    if (!sift_up(pos_[v])) sift_down(pos_[v]);
  }

  void pop() {
    pos_[heap_.front()] = kNone;
    const index_t last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    heap_.front() = last;
    sift_down(0);
  }

  void clear() {
    for (index_t v : heap_) pos_[v] = kNone;
    heap_.clear();
  }

 private:
  [[nodiscard]] bool above(index_t a, index_t b) const {
    return gain_[a] > gain_[b] || (gain_[a] == gain_[b] && a > b);
  }
  // Slots are size_t so that 2 * i + 1 cannot overflow index_t.
  void place(index_t v, std::size_t i) {
    heap_[i] = v;
    pos_[v] = static_cast<index_t>(i);
  }
  /// Returns whether the entry at slot i moved.
  bool sift_up(std::size_t i) {
    const index_t v = heap_[i];
    const std::size_t start = i;
    while (i > 0 && above(v, heap_[(i - 1) / 2])) {
      place(heap_[(i - 1) / 2], i);
      i = (i - 1) / 2;
    }
    place(v, i);
    return i != start;
  }
  void sift_down(std::size_t i) {
    const index_t v = heap_[i];
    for (std::size_t c = 2 * i + 1; c < heap_.size(); c = 2 * i + 1) {
      if (c + 1 < heap_.size() && above(heap_[c + 1], heap_[c])) ++c;
      if (!above(heap_[c], v)) break;
      place(heap_[c], i);
      i = c;
    }
    place(v, i);
  }

  const std::vector<count_t>& gain_;
  std::vector<index_t> heap_;
  std::vector<index_t> pos_;  ///< slot in heap_, kNone when absent
};

}  // namespace

void fm_refine(const Graph& g, const PartitionOptions& opts, Bisection* b) {
  const count_t total = b->side_weight[0] + b->side_weight[1];
  const auto max_side = static_cast<count_t>(
      (1.0 + opts.balance_tol) / 2.0 * static_cast<double>(total));

  // gain[v]: cut weight removed minus cut weight added by moving v to the
  // other side, i.e. external minus internal edge weight. Computed once and
  // kept exact across moves, rollbacks and passes.
  std::vector<count_t> gain(static_cast<std::size_t>(g.n), 0);
  std::vector<count_t> wdeg(static_cast<std::size_t>(g.n), 0);
  for (index_t v = 0; v < g.n; ++v) {
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      wdeg[v] += g.ewgt[p];
      gain[v] += b->side[g.adj[p]] != b->side[v] ? g.ewgt[p] : -g.ewgt[p];
    }
  }

  std::vector<char> locked(static_cast<std::size_t>(g.n));
  GainHeap heap(gain);
  // Moves v across the cut: v's gain flips sign, and a neighbor's changes
  // by -2w if it now shares v's side and by +2w otherwise. With `rekey`,
  // each unlocked neighbor is re-sifted right after its own change.
  const auto move = [&](index_t v, bool rekey) {
    const int to = 1 - b->side[v];
    b->side[v] = static_cast<signed char>(to);
    b->side_weight[1 - to] -= g.vwgt[v];
    b->side_weight[to] += g.vwgt[v];
    gain[v] = -gain[v];
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      const count_t w2 = 2 * static_cast<count_t>(g.ewgt[p]);
      gain[u] += b->side[u] == to ? -w2 : w2;
      if (rekey && !locked[u]) heap.update(u);
    }
  };

  std::vector<index_t> moved;  // in order, to allow rollback past the best
  for (int pass = 0; pass < opts.fm_passes; ++pass) {
    std::fill(locked.begin(), locked.end(), 0);
    // Seed with boundary vertices (external weight > 0) only; interior
    // vertices enter the heap when a neighbor moves.
    for (index_t v = 0; v < g.n; ++v) {
      if (gain[v] > -wdeg[v]) heap.update(v);
    }

    count_t best_improvement = 0;
    count_t improvement = 0;
    moved.clear();
    std::size_t best_prefix = 0;

    while (!heap.empty()) {
      const index_t v = heap.top();
      heap.pop();
      // A vertex that would overload the other side leaves the heap until
      // a neighbor's move changes its gain.
      if (b->side_weight[1 - b->side[v]] + g.vwgt[v] > max_side) continue;
      locked[v] = 1;
      improvement += gain[v];
      move(v, true);
      moved.push_back(v);
      if (improvement > best_improvement) {
        best_improvement = improvement;
        best_prefix = moved.size();
      }
      // Bail out of clearly unprofitable passes.
      if (moved.size() > best_prefix + 200 && improvement < best_improvement) {
        break;
      }
    }
    heap.clear();

    // Roll back moves past the best prefix.
    for (std::size_t k = moved.size(); k > best_prefix; --k) {
      move(moved[k - 1], false);
    }
    b->cut -= best_improvement;
    if (best_improvement == 0) break;
  }
  PARFACT_DCHECK([&] {
    Bisection check = *b;
    recompute_bisection_stats(g, &check);
    return check.cut == b->cut &&
           check.side_weight[0] == b->side_weight[0] &&
           check.side_weight[1] == b->side_weight[1];
  }());
}

Graph coarsen(const Graph& g, Prng& rng, std::vector<index_t>* cmap) {
  cmap->assign(static_cast<std::size_t>(g.n), kNone);
  std::vector<index_t> order(static_cast<std::size_t>(g.n));
  std::iota(order.begin(), order.end(), 0);
  // Random visit order decorrelates matchings across attempts.
  for (index_t i = g.n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_index(i + 1)]);
  }

  // The fine vertices of each coarse vertex; the second is kNone when the
  // coarse vertex is an unmatched singleton.
  std::vector<std::array<index_t, 2>> members;
  members.reserve(static_cast<std::size_t>(g.n));
  index_t n_coarse = 0;
  for (index_t v : order) {
    if ((*cmap)[v] != kNone) continue;
    // Heavy-edge: match with the unmatched neighbor of max edge weight.
    index_t best = kNone;
    index_t best_w = -1;
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      if ((*cmap)[u] == kNone && g.ewgt[p] > best_w) {
        best = u;
        best_w = g.ewgt[p];
      }
    }
    (*cmap)[v] = n_coarse;
    if (best != kNone) (*cmap)[best] = n_coarse;
    members.push_back({v, best});
    ++n_coarse;
  }

  Graph c;
  c.n = n_coarse;
  c.vwgt.assign(static_cast<std::size_t>(n_coarse), 0);
  for (index_t v = 0; v < g.n; ++v) c.vwgt[(*cmap)[v]] += g.vwgt[v];

  // Merge the members' edge lists into one unsorted list per coarse vertex,
  // summing the weights of edges that map to the same coarse neighbor:
  // slot[cu] is cu's position if it is in the list being built.
  c.adj_ptr.assign(static_cast<std::size_t>(n_coarse) + 1, 0);
  std::vector<index_t> merged;
  std::vector<index_t> merged_w;
  merged.reserve(g.adj.size());
  merged_w.reserve(g.adj.size());
  std::vector<index_t> slot(static_cast<std::size_t>(n_coarse), kNone);
  for (index_t cv = 0; cv < n_coarse; ++cv) {
    const auto begin = static_cast<index_t>(merged.size());
    for (const index_t v : members[cv]) {
      if (v == kNone) continue;
      for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
        const index_t cu = (*cmap)[g.adj[p]];
        if (cu == cv) continue;
        if (slot[cu] >= begin) {
          merged_w[slot[cu]] += g.ewgt[p];
        } else {
          slot[cu] = static_cast<index_t>(merged.size());
          merged.push_back(cu);
          merged_w.push_back(g.ewgt[p]);
        }
      }
    }
    c.adj_ptr[cv + 1] = static_cast<index_t>(merged.size());
  }

  // The coarse graph is symmetric, so its transpose is itself: visiting cv
  // in ascending order and appending cv to each neighbor's list yields the
  // same lists, sorted. slot becomes the per-list fill cursor.
  c.adj.resize(merged.size());
  c.ewgt.resize(merged.size());
  std::copy(c.adj_ptr.begin(), c.adj_ptr.end() - 1, slot.begin());
  for (index_t cv = 0; cv < n_coarse; ++cv) {
    for (index_t q = c.adj_ptr[cv]; q < c.adj_ptr[cv + 1]; ++q) {
      const index_t cu = merged[q];
      c.adj[slot[cu]] = cv;
      c.ewgt[slot[cu]++] = merged_w[q];
    }
  }
  return c;
}

Bisection multilevel_bisection(const Graph& g, const PartitionOptions& opts,
                               Prng& rng) {
  PARFACT_CHECK(g.n >= 2);
  Bisection best;
  for (int attempt = 0; attempt < std::max(1, opts.attempts); ++attempt) {
    // Coarsening phase. Level 0 is g itself; level l > 0 is coarse[l - 1].
    std::vector<Graph> coarse;
    std::vector<std::vector<index_t>> maps;
    const auto level = [&](std::size_t l) -> const Graph& {
      return l == 0 ? g : coarse[l - 1];
    };
    while (level(coarse.size()).n > opts.coarse_target) {
      const Graph& fine = level(coarse.size());
      std::vector<index_t> cmap;
      Graph c = coarsen(fine, rng, &cmap);
      // In count_t: fine.n * 95 overflows index_t past 22.6M vertices.
      if (c.n >= static_cast<count_t>(fine.n) * 95 / 100) {
        break;  // matching stalled
      }
      maps.push_back(std::move(cmap));
      coarse.push_back(std::move(c));
    }

    // Initial bisection at the coarsest level.
    const Graph& coarsest = level(coarse.size());
    Bisection b = greedy_grow_bisection(coarsest, rng);
    fm_refine(coarsest, opts, &b);

    // Uncoarsening with refinement. Contraction preserves the cut and both
    // side weights exactly, so the projection carries them over (the
    // closing recount in fm_refine checks them).
    for (std::size_t l = maps.size(); l > 0; --l) {
      const Graph& fine = level(l - 1);
      Bisection fb;
      fb.side.resize(static_cast<std::size_t>(fine.n));
      for (index_t v = 0; v < fine.n; ++v) fb.side[v] = b.side[maps[l - 1][v]];
      fb.cut = b.cut;
      fb.side_weight[0] = b.side_weight[0];
      fb.side_weight[1] = b.side_weight[1];
      fm_refine(fine, opts, &fb);
      b = std::move(fb);
    }

    if (attempt == 0 || b.cut < best.cut) best = std::move(b);
  }
  return best;
}

std::vector<index_t> vertex_separator(const Graph& g, Bisection* b) {
  // Greedy vertex cover of the cut edges: repeatedly take the endpoint
  // covering the most uncovered cut edges. Ties prefer the heavier side to
  // keep parts balanced.
  std::vector<index_t> cover_degree(static_cast<std::size_t>(g.n), 0);
  count_t cut_edges = 0;
  for (index_t v = 0; v < g.n; ++v) {
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      if (u > v && b->side[u] != b->side[v]) {
        ++cover_degree[v];
        ++cover_degree[u];
        ++cut_edges;
      }
    }
  }
  std::priority_queue<std::pair<index_t, index_t>> heap;
  for (index_t v = 0; v < g.n; ++v) {
    if (cover_degree[v] > 0) heap.emplace(cover_degree[v], v);
  }
  std::vector<index_t> separator;
  while (cut_edges > 0) {
    PARFACT_CHECK(!heap.empty());
    const auto [deg, v] = heap.top();
    heap.pop();
    if (b->side[v] == 2 || deg != cover_degree[v]) continue;
    separator.push_back(v);
    // Removing v covers all its remaining cut edges.
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      if (b->side[u] != 2 && b->side[u] != b->side[v]) {
        --cut_edges;
        --cover_degree[u];
        if (cover_degree[u] > 0) heap.emplace(cover_degree[u], u);
      }
    }
    cover_degree[v] = 0;
    b->side[v] = 2;
  }
  return separator;
}

}  // namespace parfact
