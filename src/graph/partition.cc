#include "graph/partition.h"

#include <algorithm>
#include <array>
#include <bit>
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

/// The cap on GainQueue's bound for a graph of n vertices and total vertex
/// weight `weight`: the largest B with (2B + 3) * ceil(n / 64) <= 4 *
/// weight + 256 bucket words, and small enough that bucket ids fit index_t.
count_t bound_cap(index_t n, count_t weight) {
  const count_t words = std::max<count_t>((count_t{n} + 63) / 64, 1);
  return std::clamp<count_t>(((4 * weight + 256) / words - 3) / 2, 0,
                             kIndexMax / 4);
}

}  // namespace

void GainQueue::Heap::reset(const count_t* gain, std::size_t n) {
  gain_ = gain;
  if (pos_.size() < n) pos_.resize(n, kNone);
}

void GainQueue::Heap::update(index_t v) {
  if (pos_[v] == kNone) {
    pos_[v] = static_cast<index_t>(heap_.size());
    heap_.push_back(v);
  }
  if (!sift_up(pos_[v])) sift_down(pos_[v]);
}

void GainQueue::Heap::pop() {
  pos_[heap_.front()] = kNone;
  const index_t last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  heap_.front() = last;
  sift_down(0);
}

void GainQueue::Heap::clear() {
  for (index_t v : heap_) pos_[v] = kNone;
  heap_.clear();
}

// Slots are size_t so that 2 * i + 1 cannot overflow index_t. Returns
// whether the entry at slot i moved.
bool GainQueue::Heap::sift_up(std::size_t i) {
  const index_t v = heap_[i];
  const std::size_t start = i;
  while (i > 0 && above(v, heap_[(i - 1) / 2])) {
    place(heap_[(i - 1) / 2], i);
    i = (i - 1) / 2;
  }
  place(v, i);
  return i != start;
}

void GainQueue::Heap::sift_down(std::size_t i) {
  const index_t v = heap_[i];
  for (std::size_t c = 2 * i + 1; c < heap_.size(); c = 2 * i + 1) {
    if (c + 1 < heap_.size() && above(heap_[c + 1], heap_[c])) ++c;
    if (!above(heap_[c], v)) break;
    place(heap_[c], i);
    i = c;
  }
  place(v, i);
}

void GainQueue::reset(std::span<const count_t> gain,
                      std::span<const count_t> wdeg, count_t weight) {
  PARFACT_CHECK(gain.size() == wdeg.size());
  drain();
  gain_ = gain.data();
  wdeg_ = wdeg.data();
  n_ = static_cast<index_t>(gain.size());
  const count_t max_wdeg =
      wdeg.empty() ? 0 : *std::max_element(wdeg.begin(), wdeg.end());
  bound_ = std::min(max_wdeg, bound_cap(n_, weight));
  words_ = (static_cast<std::size_t>(n_) + 63) / 64;
  summary_ = (words_ + 63) / 64;
  const auto buckets = static_cast<std::size_t>(2 * bound_ + kFirstBucket + 1);
  // drain() left every word zero, so grown storage needs no other reset.
  if (bits_.size() < buckets * words_) bits_.resize(buckets * words_, 0);
  if (summary_bits_.size() < buckets * summary_) {
    summary_bits_.resize(buckets * summary_, 0);
  }
  if (hint_.size() < buckets) hint_.resize(buckets, -1);
  slot_.resize(static_cast<std::size_t>(n_));
  heavy_.reset(gain_, static_cast<std::size_t>(n_));
  for (index_t v = 0; v < n_; ++v) {
    slot_[v] = wdeg_[v] > bound_ ? kHeavy : kParked;
  }
}

void GainQueue::set_bit(index_t b, index_t v) {
  const auto w = static_cast<std::size_t>(v) >> 6;
  bits_[b * words_ + w] |= std::uint64_t{1} << (v & 63);
  summary_bits_[b * summary_ + (w >> 6)] |= std::uint64_t{1} << (w & 63);
  hint_[b] = std::max(hint_[b], static_cast<index_t>(w >> 6));
}

void GainQueue::clear_bit(index_t b, index_t v) {
  const auto w = static_cast<std::size_t>(v) >> 6;
  std::uint64_t& word = bits_[b * words_ + w];
  word &= ~(std::uint64_t{1} << (v & 63));
  summary_bits_[b * summary_ + (w >> 6)] &=
      ~(static_cast<std::uint64_t>(word == 0) << (w & 63));
}

void GainQueue::update(index_t v) {
  const index_t s = slot_[v];
  if (s == kHeavy) [[unlikely]] {
    heavy_.update(v);
    return;
  }
  // A locked vertex moves from the locked sink to itself.
  const index_t t =
      s == kLocked ? kLocked
                   : static_cast<index_t>(kFirstBucket + bound_ + gain_[v]);
  PARFACT_DCHECK(t >= kLocked && t <= kFirstBucket + 2 * bound_);
  clear_bit(s, v);
  set_bit(t, v);
  slot_[v] = t;
  top_ = std::max(top_, t);
}

index_t GainQueue::pop() {
  // Lower top_ to the highest non-empty bucket: the hints only fall while
  // scanning and only rise on insertion, so the scans are amortized. A hint
  // left by a larger graph may point past this one's summary words.
  for (; top_ >= kFirstBucket; --top_) {
    index_t& h = hint_[top_];
    h = std::min(h, static_cast<index_t>(summary_) - 1);
    const std::uint64_t* sum = &summary_bits_[top_ * summary_];
    while (h >= 0 && sum[h] == 0) --h;
    if (h >= 0) break;
  }
  index_t v = kNone;
  if (top_ >= kFirstBucket) {
    const index_t h = hint_[top_];
    const std::size_t w =
        static_cast<std::size_t>(h) * 64 + 63 -
        std::countl_zero(summary_bits_[top_ * summary_ + h]);
    v = static_cast<index_t>(w * 64 + 63 -
                             std::countl_zero(bits_[top_ * words_ + w]));
  }
  if (!heavy_.empty()) {
    const index_t u = heavy_.top();
    if (v == kNone || gain_[u] > gain_[v] || (gain_[u] == gain_[v] && u > v)) {
      heavy_.pop();
      return u;
    }
  }
  if (v != kNone) {
    PARFACT_DCHECK(slot_[v] == top_);
    clear_bit(top_, v);
    slot_[v] = kParked;
  }
  return v;
}

void GainQueue::drain() {
  // Hints stay: an emptied bucket's hint is still an upper bound.
  for (index_t v = 0; v < n_; ++v) {
    const index_t s = slot_[v];
    if (s >= kFirstBucket) {
      const auto w = static_cast<std::size_t>(v) >> 6;
      bits_[s * words_ + w] = 0;
      summary_bits_[s * summary_ + (w >> 6)] = 0;
    }
  }
  // The sinks' bits are set without a matching queued vertex.
  std::fill_n(bits_.begin(), kFirstBucket * words_, 0);
  std::fill_n(summary_bits_.begin(), kFirstBucket * summary_, 0);
  top_ = kFirstBucket - 1;
  heavy_.clear();
}

void GainQueue::clear() {
  drain();
  for (index_t v = 0; v < n_; ++v) {
    slot_[v] = wdeg_[v] > bound_ ? kHeavy : kParked;
  }
}

void fm_refine(const Graph& g, const PartitionOptions& opts, Bisection* b,
               FmWorkspace* ws) {
  FmWorkspace own;
  if (ws == nullptr) ws = &own;
  const count_t total = b->side_weight[0] + b->side_weight[1];
  const auto max_side = static_cast<count_t>(
      (1.0 + opts.balance_tol) / 2.0 * static_cast<double>(total));

  // gain[v]: cut weight removed minus cut weight added by moving v to the
  // other side, i.e. external minus internal edge weight. Computed once and
  // kept exact across moves, rollbacks and passes.
  std::vector<count_t>& gain = ws->gain;
  std::vector<count_t>& wdeg = ws->wdeg;
  gain.assign(static_cast<std::size_t>(g.n), 0);
  wdeg.assign(static_cast<std::size_t>(g.n), 0);
  for (index_t v = 0; v < g.n; ++v) {
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      wdeg[v] += g.ewgt[p];
      gain[v] += b->side[g.adj[p]] != b->side[v] ? g.ewgt[p] : -g.ewgt[p];
    }
  }

  GainQueue& queue = ws->queue;
  queue.reset(gain, wdeg, total);
  // Moves v across the cut: v's gain flips sign, and a neighbor's changes
  // by -2w if it now shares v's side and by +2w otherwise. With `rekey`,
  // each neighbor is re-keyed (locked ones stay out) right after its own
  // change.
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
      if (rekey) queue.update(u);
    }
  };

  std::vector<index_t>& moved = ws->moved;  // in order, for the rollback
  for (int pass = 0; pass < opts.fm_passes; ++pass) {
    // Seed with boundary vertices (external weight > 0) only; interior
    // vertices enter the queue when a neighbor moves.
    for (index_t v = 0; v < g.n; ++v) {
      if (gain[v] > -wdeg[v]) queue.update(v);
    }

    count_t best_improvement = 0;
    count_t improvement = 0;
    moved.clear();
    std::size_t best_prefix = 0;

    for (index_t v = queue.pop(); v != kNone; v = queue.pop()) {
      // A vertex that would overload the other side stays parked until a
      // neighbor's move changes its gain.
      if (b->side_weight[1 - b->side[v]] + g.vwgt[v] > max_side) continue;
      queue.lock(v);
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
    queue.clear();

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
                               Prng& rng, FmWorkspace* ws) {
  PARFACT_CHECK(g.n >= 2);
  FmWorkspace own;
  if (ws == nullptr) ws = &own;
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
    fm_refine(coarsest, opts, &b, ws);

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
      fm_refine(fine, opts, &fb, ws);
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
