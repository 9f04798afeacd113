// Dependency-tagged task graph: the shared-memory analogue of the paper's
// asynchronous fan-both execution (and of StarPU's TAG11/TAG12/TAG21/TAG22 +
// tag_declare_deps idiom).
//
// A TaskGraph is built once per operation: every unit of work — a front
// assembly, a POTRF, one TRSM row slab, a forward-solve of one supernode —
// is added under a 64-bit *typed tag* encoding (kind, supernode, i, j), and
// its dependencies are declared by tag. The graph then runs under the
// work-stealing scheduler (scheduler.h), or is replayed against virtual
// worker clocks (simulate_makespan) for deterministic schedule studies on
// any host.
//
// Priorities are critical-path lengths: priority(t) = cost(t) + max over
// successors, computed in one reverse pass when the graph is sealed. The
// scheduler always prefers the highest-priority ready task, so the
// top-of-tree elimination chain — the part of the DAG that bounds the
// makespan — is never starved by leaf work.
//
// Determinism contract: the graph only *orders* work; every task body must
// be independent of execution interleaving (disjoint writes, fixed merge
// order inside a task). All users in this repo keep the factor/solve
// bitwise identical to the serial reference under any schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <unordered_map>
#include <vector>

#include "support/types.h"

namespace parfact::rt {

/// 64-bit typed task tag: kind in the top byte, then three operand fields
/// (supernode / slab indices). Mirrors the StarPU heat example's
/// TAG11(k)/TAG12(k,i)/TAG22(k,i,j) packing, widened for supernode counts.
using tag_t = std::uint64_t;

enum class TaskKind : std::uint8_t {
  kAssemble = 1,  ///< front assembly: scatter A + deterministic extend-add
  kPotrf = 2,     ///< diagonal-block factorization of one front
  kTrsm = 3,      ///< one row slab of the panel TRSM
  kPrep = 4,      ///< LDLᵀ only: keep M, rescale panel to L21 = M D⁻¹
  kUpdate = 5,    ///< one row slab of the trailing SYRK/GEMM update
  kElim = 6,      ///< fused whole-front elimination (small fronts)
  kSolve = 7,     ///< one sweep's light subtree or top-of-tree supernode
  kUser = 15,     ///< free-form tasks (tests, experiments)
};

/// Packs (kind, k, i, j) into a tag. k gets 32 bits (supernode ids), i and
/// j 12 bits each (slab indices); all fields are range-checked in debug.
[[nodiscard]] constexpr tag_t make_tag(TaskKind kind, std::uint64_t k,
                                       std::uint64_t i = 0,
                                       std::uint64_t j = 0) {
  return (static_cast<tag_t>(kind) << 56) | ((k & 0xffffffffULL) << 24) |
         ((i & 0xfffULL) << 12) | (j & 0xfffULL);
}

[[nodiscard]] constexpr TaskKind tag_kind(tag_t tag) {
  return static_cast<TaskKind>(tag >> 56);
}
[[nodiscard]] constexpr std::uint64_t tag_k(tag_t tag) {
  return (tag >> 24) & 0xffffffffULL;
}
[[nodiscard]] constexpr std::uint64_t tag_i(tag_t tag) {
  return (tag >> 12) & 0xfffULL;
}
[[nodiscard]] constexpr std::uint64_t tag_j(tag_t tag) {
  return tag & 0xfffULL;
}

/// Virtual-time replay of a sealed graph: list scheduling on `n_workers`
/// clocks, highest critical-path priority first (FIFO among ties, so the
/// replay is deterministic). Returns the simulated makespan in seconds at
/// `rate` cost units per second (costs are flops in this repo).
struct SimulatedSchedule {
  double makespan = 0.0;
  double busy = 0.0;        ///< Σ task costs / rate
  double critical_path = 0.0;  ///< longest cost-weighted path / rate
  /// Parallel efficiency vs the perfect busy/n_workers bound.
  [[nodiscard]] double efficiency(int n_workers) const {
    return makespan > 0.0 ? busy / n_workers / makespan : 1.0;
  }
};

/// Dependency-tagged DAG of executable tasks. Build with add_task /
/// declare_deps (tasks must be added before anything that depends on them —
/// emission order is a topological order, which is what makes the one-pass
/// priority computation valid), then seal() once; run via the scheduler.
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Adds a task. `cost` is the priority/replay weight (flops here; any
  /// consistent unit works). Returns the dense task index.
  index_t add_task(tag_t tag, std::function<void()> fn, double cost = 1.0);

  /// Declares that `task` cannot start before every tag in `deps` has
  /// finished. All tags must already be in the graph; duplicate edges are
  /// coalesced. Matches starpu_tag_declare_deps semantics.
  void declare_deps(tag_t task, std::span<const tag_t> deps);
  void declare_deps(tag_t task, std::initializer_list<tag_t> deps);

  [[nodiscard]] index_t n_tasks() const {
    return static_cast<index_t>(tasks_.size());
  }

  /// Freezes the structure and computes critical-path priorities (one
  /// reverse sweep — valid because insertion order is topological). Called
  /// automatically by the scheduler / simulator; idempotent.
  void seal();

  /// Virtual replay (no task bodies are run); see SimulatedSchedule.
  [[nodiscard]] SimulatedSchedule simulate_makespan(int n_workers,
                                                    double rate) const;

  // --- Scheduler-facing access (valid after seal()). ---
  struct Node {
    tag_t tag = 0;
    std::function<void()> fn;
    double cost = 1.0;
    double priority = 0.0;      ///< critical-path length including self
    index_t n_deps = 0;         ///< static in-degree
    std::vector<index_t> out;   ///< successor task indices
  };
  [[nodiscard]] const Node& node(index_t t) const {
    return tasks_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] Node& node(index_t t) {
    return tasks_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] bool sealed() const { return sealed_; }

 private:
  [[nodiscard]] index_t index_of(tag_t tag) const;

  std::vector<Node> tasks_;
  std::unordered_map<tag_t, index_t> index_of_;
  bool sealed_ = false;
};

}  // namespace parfact::rt
