// Task-DAG multifrontal factorization engine.
//
// Emits the whole numeric factorization as one rt::TaskGraph: per supernode
// either a single fused ELIM task (small fronts — the vast majority, where
// task overhead would swamp the kernel) or an ASSEMBLE → POTRF → TRSM-slab*
// → [LDLᵀ PREP] → UPDATE-slab* pipeline (large fronts near the root, where
// tree parallelism has run out). The graph runs
// under the work-stealing scheduler with critical-path priorities derived
// from per-task flop costs, so the root chain is never starved.
//
// Determinism: identical to the serial engine bit for bit. Assembly
// extend-adds children in fixed child order inside one task; TRSM row slabs
// each run the full serial solve on their rows; Cholesky update slabs use
// dense::syrk_lower_update_slab (packed-engine pieces whose per-element
// summation order is row-partition-invariant, and fronts where that does
// not hold are never split); LDLᵀ update slabs call the serial gemm_nt
// kernel on disjoint row blocks. Perturbation counts are per-front sums of
// schedule-independent serial POTRF/LDLᵀ runs.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "mf/factor.h"
#include "mf/front_kernel.h"
#include "mf/multifrontal.h"
#include "runtime/task_graph.h"
#include "symbolic/symbolic_factor.h"

namespace parfact::detail {

/// Tracks live update-block bytes and their peak across a run's tasks.
class UpdateMemory {
 public:
  void add(std::size_t bytes) {
    const std::size_t now = live_.fetch_add(bytes) + bytes;
    std::size_t peak = peak_.load();
    while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
    }
  }
  void sub(std::size_t bytes) { live_.fetch_sub(bytes); }
  [[nodiscard]] std::size_t peak() const { return peak_.load(); }

 private:
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};
};

/// Builder + shared mutable state for one DAG factorization run. Create,
/// call emit(), run the graph, then read the accumulated statistics. Must
/// outlive the graph execution.
class FactorDag {
 public:
  /// `factor` must be constructed from `sym` (diag allocated by the caller
  /// in LDLᵀ mode); its panels may hold an earlier factorization, since
  /// each front's assembling task zeroes its panel first, as the serial
  /// driver does for a reused factor. `pivot_magnitude`: the static-pivot
  /// boost (0 boosts nothing). `fuse_flops`: fronts below this flop count
  /// become single fused tasks. `n_workers`: scheduler width, used only to
  /// pick slab counts (never affects numeric results).
  FactorDag(const SymbolicFactor& sym, CholeskyFactor& factor,
            FactorKind kind, std::span<real_t> d, real_t pivot_magnitude,
            count_t fuse_flops, int n_workers);

  /// Emits every factorization task into `graph` in topological order
  /// (postorder over supernodes, pipeline order within a front).
  void emit(rt::TaskGraph& graph);

  [[nodiscard]] count_t perturbations() const {
    return perturbations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t peak_update_bytes() const { return mem_.peak(); }

 private:
  void emit_fused(rt::TaskGraph& graph, index_t s);
  void emit_split(rt::TaskGraph& graph, index_t s);
  [[nodiscard]] index_t slab_count(count_t flops, index_t rows) const;
  std::span<real_t> allocate_block(index_t s);
  void finish_assembly(index_t s);
  std::unique_ptr<FrontScratch> acquire_scratch();
  void release_scratch(std::unique_ptr<FrontScratch> scratch);

  const SymbolicFactor& sym_;
  CholeskyFactor& factor_;
  const FactorKind kind_;
  const std::span<real_t> d_;
  const real_t pivot_magnitude_;
  const count_t fuse_flops_;
  const int n_workers_;

  /// One heap block per live update block (the schedule is not LIFO, so
  /// there is no stack to put them on), allocated uninitialized by the
  /// front's assembly — which zeroes it — and freed by its parent's.
  std::vector<std::unique_ptr<real_t[]>> blocks_;
  std::vector<real_t*> update_of_;  ///< blocks_ as the kernels take them
  /// LDLᵀ split fronts: M = L21 D buffers, freed by the last update slab.
  std::vector<std::vector<real_t>> m_of_;
  std::vector<std::unique_ptr<std::atomic<index_t>>> m_refs_;

  /// Per-supernode completion tags: update block final.
  std::vector<std::vector<rt::tag_t>> update_done_;

  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<FrontScratch>> scratch_pool_;
  UpdateMemory mem_;
  std::atomic<count_t> perturbations_{0};
};

}  // namespace parfact::detail
