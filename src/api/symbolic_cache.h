// Pattern-keyed cache of completed symbolic analyses — the reuse layer the
// serving engine (api/service.h) and Solver::analyze() share.
//
// A CachedAnalysis is everything the analyze phase produces that depends
// only on the sparsity pattern and the ordering: the postordered
// SymbolicFactor (elimination tree, supernode partition, row
// structure — values zeroed), the composed permutation, the nonzero
// scatter map that routes a caller's values into the postordered matrix,
// and the precomputed SolveSchedule. On a hit, a Solver adopts the entry by
// copying the structure arrays and scattering its own values through
// value_map — O(nnz) copies instead of re-running nested dissection +
// symbolic analysis, which dominates end-to-end time in the (factor once,
// re-factor same pattern) serving loop. The configuration half of the key
// is the ordering alone: every other solver option, the thread count
// included, leaves the analysis as it is, so one entry per (pattern,
// ordering) serves them all.
//
// Entries are immutable once inserted and handed out as shared_ptr<const>,
// so readers never take the cache lock for longer than the map probe; the
// SolveSchedule inside an entry points at the entry's own SymbolicFactor,
// which is why CachedAnalysis is neither copyable nor movable (adopters
// copy the pieces, then rebind the schedule to their own copy). The cache
// itself is a mutex-guarded LRU map sized in entries; eviction only drops
// the cache's reference — solvers holding an adopted entry keep it alive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "solve/solve_schedule.h"
#include "support/types.h"
#include "symbolic/pattern_key.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

/// One completed analysis, keyed by pattern. Immutable after construction.
struct CachedAnalysis {
  /// `sym` must arrive with values already zeroed (the cache stores
  /// pattern-level data only; session values never leak through it).
  CachedAnalysis(SymbolicFactor sym_in, std::vector<index_t> total_perm_in,
                 std::vector<index_t> value_map_in)
      : sym(std::move(sym_in)),
        total_perm(std::move(total_perm_in)),
        value_map(std::move(value_map_in)),
        schedule(sym) {}
  CachedAnalysis(const CachedAnalysis&) = delete;
  CachedAnalysis& operator=(const CachedAnalysis&) = delete;

  SymbolicFactor sym;               ///< postordered structure, values zeroed
  std::vector<index_t> total_perm;  ///< postordered index -> original index
  /// Nonzero scatter map: sym.a.values[q] = input_lower.values[value_map[q]].
  /// This is also what Solver::refactorize uses to install new values.
  std::vector<index_t> value_map;
  SolveSchedule schedule;           ///< bound to this entry's `sym`
};

/// Thread-safe pattern-keyed LRU cache of analyses. All methods may be
/// called concurrently from any thread.
class SymbolicCache {
 public:
  /// `max_entries` bounds the number of cached analyses (>= 1).
  explicit SymbolicCache(std::size_t max_entries = 64);

  /// Returns the entry for `key` (bumping its recency) or nullptr.
  /// Counts one hit or one miss.
  [[nodiscard]] std::shared_ptr<const CachedAnalysis> lookup(
      const PatternKey& key);

  /// Inserts `entry` under `key`, evicting the least-recently-used entry
  /// when over capacity. If another thread won the race to insert the same
  /// key, the incumbent wins and is returned (so concurrent analyzers of
  /// one pattern converge on a single shared entry).
  std::shared_ptr<const CachedAnalysis> insert(
      const PatternKey& key, std::shared_ptr<const CachedAnalysis> entry);

  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  [[nodiscard]] count_t hits() const;
  [[nodiscard]] count_t misses() const;
  [[nodiscard]] count_t evictions() const;

 private:
  struct Slot {
    std::shared_ptr<const CachedAnalysis> entry;
    std::uint64_t last_used = 0;
  };

  mutable std::mutex mu_;
  std::size_t max_entries_;
  std::uint64_t tick_ = 0;
  std::unordered_map<PatternKey, Slot, PatternKeyHash> map_;
  count_t hits_ = 0;
  count_t misses_ = 0;
  count_t evictions_ = 0;
};

}  // namespace parfact
