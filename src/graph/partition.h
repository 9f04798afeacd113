// Graph bisection: greedy growing, Fiduccia–Mattheyses refinement, multilevel
// scheme (heavy-edge-matching coarsening), and vertex-separator extraction.
//
// This is the engine behind nested dissection. It follows the multilevel
// scheme METIS popularized: coarsen with heavy-edge matching until the graph
// is small, bisect the coarsest graph greedily, then uncoarsen while
// refining the cut with FM passes at every level; the best of
// `PartitionOptions::attempts` (default two) independent runs wins. Each FM
// pass is seeded with the boundary vertices (interior ones join when a
// neighbor moves) and ends when its queue empties or it is more than 200
// moves past its best cut. Unlike METIS it has no graph compression (the
// three dofs of an elasticity node stay three vertices) and no bounded,
// boundary-only refinement at the fine levels.
//
// FM's queue (GainQueue) holds each vertex of weighted degree at most B in
// a bitset per gain value and every heavier one in an indexed binary heap;
// it pops in the order of one max-heap on (gain, vertex id), so the moves
// are those of a plain heap-based FM.
//
// Memory rule: B is the graph's largest weighted degree, capped so that the
// 2B + 3 bucket bitsets of ceil(n / 64) words each take at most 4V + 256
// words, V the total vertex weight (summary words and per-bucket hints add
// at most 1.5 times as many). Coarsening keeps V, so for nested dissection
// of an N-vertex graph every queue stays within 4N + 256 words, and B can
// grow at the coarse levels as their weighted degrees do (a unit-weight
// graph with n >= 64 gets B <= 254, and B <= 134 once n >= 1000). A hub
// vertex only moves itself into the heap, never the memory bound.
#pragma once

#include <cstdint>
#include <span>
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

/// Max-queue of FM's candidate moves, keyed by (gain[v], v): pop() returns
/// the highest gain, ties to the larger vertex id, exactly the order of one
/// max-heap on those keys. A vertex is queued, parked (out of the queue) or
/// locked (update() leaves it out until clear()).
///
/// A vertex whose weighted degree is at most bound() can only take gains in
/// [-bound(), bound()]; it lives in one two-level bitset per gain value
/// (64-bit words plus one summary bit per word), so queuing, re-keying and
/// parking it are O(1) bit operations. Heavier vertices live in an indexed
/// binary heap, and pop() compares the two tops. The bound is the largest
/// weighted degree, cut down until the 2 * bound() + 3 bitsets (one per
/// gain, plus the parked and locked sinks) fit in 4 * weight + 256 words
/// (the memory rule in the header comment).
class GainQueue {
 public:
  /// Takes vertices [0, gain.size()) with weighted degrees `wdeg` (same
  /// length, each >= 0), all parked and unlocked; `weight` is the graph's
  /// total vertex weight. The queue reads each key from `gain` when the
  /// vertex is queued or re-keyed, so both spans must outlive its use;
  /// storage grows to the largest graph reset() has seen.
  void reset(std::span<const count_t> gain, std::span<const count_t> wdeg,
             count_t weight);

  /// Queues v at its current gain, or restores its place after gain[v]
  /// changed; a no-op while v is locked. Call it after every single gain
  /// change of a queued vertex: the heap assumes all other keys are current.
  void update(index_t v);

  /// Locks v, which must be out of the queue (popped, or never queued).
  void lock(index_t v) { slot_[v] = kLocked; }

  /// Removes and returns the top vertex, which becomes parked; kNone when
  /// the queue is empty.
  [[nodiscard]] index_t pop();

  /// Empties the queue and unlocks every vertex.
  void clear();

  [[nodiscard]] count_t bound() const { return bound_; }

 private:
  // slot_ values: a vertex's bucket (kFirstBucket + B + gain) while it is
  // queued light, kParked or kLocked (sink buckets whose bits are never
  // read), or kHeavy for an unlocked heavy vertex (the heap knows whether
  // it is queued).
  static constexpr index_t kHeavy = -1;
  static constexpr index_t kLocked = 0;
  static constexpr index_t kParked = 1;
  static constexpr index_t kFirstBucket = 2;

  /// Indexed max-heap on (gain[v], v) for the heavy vertices: one entry per
  /// vertex, with each vertex's slot tracked so that a gain change re-sifts
  /// the entry in place.
  class Heap {
   public:
    void reset(const count_t* gain, std::size_t n);
    [[nodiscard]] bool empty() const { return heap_.empty(); }
    [[nodiscard]] index_t top() const { return heap_.front(); }
    void update(index_t v);
    void pop();
    void clear();

   private:
    [[nodiscard]] bool above(index_t a, index_t b) const {
      return gain_[a] > gain_[b] || (gain_[a] == gain_[b] && a > b);
    }
    void place(index_t v, std::size_t i) {
      heap_[i] = v;
      pos_[v] = static_cast<index_t>(i);
    }
    bool sift_up(std::size_t i);
    void sift_down(std::size_t i);

    const count_t* gain_ = nullptr;
    std::vector<index_t> heap_;
    std::vector<index_t> pos_;  ///< slot in heap_, kNone when absent
  };

  void set_bit(index_t b, index_t v);
  void clear_bit(index_t b, index_t v);
  /// Zeroes every bucket word the queue has set and empties the heap.
  void drain();

  const count_t* gain_ = nullptr;
  const count_t* wdeg_ = nullptr;
  index_t n_ = 0;
  count_t bound_ = 0;
  std::size_t words_ = 0;    ///< bitset words per bucket, ceil(n / 64)
  std::size_t summary_ = 0;  ///< summary words per bucket, ceil(words_ / 64)
  index_t top_ = kFirstBucket - 1;  ///< no non-empty bucket lies above
  std::vector<std::uint64_t> bits_;     ///< bucket b's words at b * words_
  std::vector<std::uint64_t> summary_bits_;  ///< at b * summary_
  /// Per bucket: no summary word above this index is non-zero (-1: none).
  std::vector<index_t> hint_;
  std::vector<index_t> slot_;
  Heap heavy_;
};

/// Scratch storage that fm_refine reuses from call to call: the queue,
/// gains, weighted degrees and move log. Nested dissection keeps one for
/// all of its bisections.
struct FmWorkspace {
  GainQueue queue;
  std::vector<count_t> gain;
  std::vector<count_t> wdeg;
  std::vector<index_t> moved;
};

/// FM refinement: up to `opts.fm_passes` hill-climbing passes that each
/// start from the boundary vertices, move the highest-gain vertex that keeps
/// balance within `opts.balance_tol` (ties: larger vertex id), lock it, and
/// keep the best prefix of the pass; a pass stops 200 moves past its best.
/// Gains are exact and updated incrementally per move on a GainQueue.
/// Requires positive edge weights. Updates b in place. `ws` (null: one of
/// its own) is the scratch storage; it carries no state between calls.
void fm_refine(const Graph& g, const PartitionOptions& opts, Bisection* b,
               FmWorkspace* ws = nullptr);

/// Heavy-edge matching coarsening step. Returns the coarse graph and fills
/// `cmap` (fine vertex -> coarse vertex). Returns a graph with n == g.n when
/// no coarsening was possible (caller should stop).
[[nodiscard]] Graph coarsen(const Graph& g, Prng& rng,
                            std::vector<index_t>* cmap);

/// Full multilevel bisection of a connected or disconnected graph. `ws`
/// (null: one of its own) is the scratch storage of every FM call it makes.
[[nodiscard]] Bisection multilevel_bisection(const Graph& g,
                                             const PartitionOptions& opts,
                                             Prng& rng,
                                             FmWorkspace* ws = nullptr);

/// Converts an edge bisection into a vertex separator using a greedy vertex
/// cover of the cut edges. Marks separator vertices with side 2 and returns
/// their list. After the call no 0-1 edge remains.
[[nodiscard]] std::vector<index_t> vertex_separator(const Graph& g,
                                                    Bisection* b);

}  // namespace parfact
