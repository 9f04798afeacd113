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
//
// The builder exposes per-supernode panel-ready tags so the fused
// factor+solve driver (solve/fused.h) can hang forward-solve tasks off
// fully factored subtrees while upper fronts are still factoring.
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
/// call emit(), optionally append more tasks (phase fusion), run the graph,
/// then read the accumulated statistics. Must outlive the graph execution.
class FactorDag {
 public:
  /// `factor` must be freshly constructed from `sym` (zeroed panels; diag
  /// allocated by the caller in LDLᵀ mode). `fuse_flops`: fronts below this
  /// flop count become single fused tasks. `n_workers`: scheduler width,
  /// used only to pick slab counts (never affects numeric results).
  FactorDag(const SymbolicFactor& sym, CholeskyFactor& factor,
            FactorKind kind, std::span<real_t> d, PivotPolicy pivot,
            count_t fuse_flops, int n_workers);

  /// Emits every factorization task into `graph` in topological order
  /// (postorder over supernodes, pipeline order within a front).
  void emit(rt::TaskGraph& graph);

  /// Tags that must all complete before supernode s's panel (and, in LDLᵀ
  /// mode, its diag entries) hold final factor values. Valid after emit().
  [[nodiscard]] std::span<const rt::tag_t> panel_ready(index_t s) const {
    return panel_ready_[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] count_t perturbations() const {
    return perturbations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t peak_update_bytes() const { return mem_.peak(); }

 private:
  void emit_fused(rt::TaskGraph& graph, index_t s);
  void emit_split(rt::TaskGraph& graph, index_t s);
  [[nodiscard]] index_t slab_count(count_t flops, index_t rows) const;
  void finish_assembly(index_t s);
  std::unique_ptr<FrontScratch> acquire_scratch();
  void release_scratch(std::unique_ptr<FrontScratch> scratch);

  const SymbolicFactor& sym_;
  CholeskyFactor& factor_;
  const FactorKind kind_;
  const std::span<real_t> d_;
  const PivotPolicy pivot_;
  const count_t fuse_flops_;
  const int n_workers_;

  std::vector<std::vector<index_t>> children_;
  std::vector<std::vector<real_t>> update_of_;
  /// LDLᵀ split fronts: M = L21 D buffers, freed by the last update slab.
  std::vector<std::vector<real_t>> m_of_;
  std::vector<std::unique_ptr<std::atomic<index_t>>> m_refs_;

  /// Per-supernode completion tags: panel final / update block final.
  std::vector<std::vector<rt::tag_t>> panel_ready_;
  std::vector<std::vector<rt::tag_t>> update_done_;

  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<FrontScratch>> scratch_pool_;
  UpdateMemory mem_;
  std::atomic<count_t> perturbations_{0};
};

}  // namespace parfact::detail
