// Precomputed execution plan for the supernodal triangular solves.
//
// The solve phase is bandwidth-bound and latency-sensitive: every sweep
// walks the whole assembly tree, and the per-supernode scatter/gather
// index arithmetic plus temporary allocation dominate once the panels fit
// in cache. The SolveSchedule is built once (at factorization time, from
// the symbolic structure alone) and amortizes all of that across every
// subsequent solve:
//
//   * Tree partition — maximal "light" subtrees (contiguous postorder
//     index ranges) become one task each, and every remaining top-of-tree
//     supernode is a task of its own. A threaded sweep runs them as one
//     rt::TaskGraph whose edges are the assembly tree's: children first
//     forward, parents first backward (solve.cc).
//
//   * Pull-based forward plan — instead of scattering each supernode's
//     update −L21·x1 into x (which would race across sibling subtrees and
//     change the floating-point reduction order), the update is written to
//     a per-supernode slice of a workspace arena and *pulled* by the
//     owning ancestor supernodes just before their own solve, in ascending
//     source-supernode order. Every per-element addition sequence is then
//     exactly the serial postorder push sequence, so threaded sweeps are
//     bitwise-identical to serial ones regardless of the partition.
//
//   * Gather runs — the backward sweep's x-gather at the below rows is
//     precomputed as maximal consecutive-row runs, turning the per-entry
//     indexed loop into a handful of memcpys per supernode.
//
//   * Workspace arena — one allocation sized from sn_row_ptr covers every
//     supernode's update slice for a whole RHS block; no per-supernode
//     temporaries survive in the sweeps.
//
// RHS blocking: the engine processes right-hand sides in fixed-width
// blocks of `rhs_block` columns. The dense kernels' engine dispatch
// depends on the operand width, so results are defined (and bitwise
// reproducible) per block partition; all engine entry points — serial,
// threaded, resident, spilled — share this partition, which is what makes
// their identity contracts exact.
#pragma once

#include <vector>

#include "support/types.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

struct SolveScheduleOptions {
  /// Right-hand-side columns processed per blocked sweep. Panels are
  /// streamed once per block, so larger blocks raise the solve's
  /// flops-per-byte until the block stops fitting next to the panels.
  index_t rhs_block = 32;
  /// A supernode is "light" when its per-RHS solve work (p² + 2pb flops)
  /// is below this and all of its children are light; maximal light
  /// subtrees become independent tasks.
  count_t task_work = 50'000;
};

/// Immutable solve plan for one SymbolicFactor. The referenced symbolic
/// structure must outlive the schedule.
struct SolveSchedule {
  explicit SolveSchedule(const SymbolicFactor& sym,
                         SolveScheduleOptions opts = {});

  /// One incoming forward-update segment: rows [lo, hi) of sn_rows (global
  /// indices into the sn_rows array) of source supernode `src` land in this
  /// supernode's panel rows.
  struct Incoming {
    index_t src;
    index_t lo;
    index_t hi;
  };

  /// One backward-gather run: `len` consecutive x rows starting at global
  /// row `row` copy to local rows [dst, dst+len) of the gathered block.
  struct Run {
    index_t dst;
    index_t row;
    index_t len;
  };

  const SymbolicFactor* sym;
  index_t rhs_block;

  /// Independent-subtree tasks: task t covers supernodes
  /// [task_first[t], task_root[t]] (a contiguous postorder range).
  std::vector<index_t> task_first;
  std::vector<index_t> task_root;
  /// Every supernode that belongs to no task, ascending: the top of the
  /// tree. A task root's parent and a top supernode's parent are top
  /// supernodes.
  std::vector<index_t> top_sn;

  /// Forward pull plan (CSR over supernodes): segments of ancestors'
  /// pending updates that land in supernode s's panel rows, ascending in
  /// source supernode.
  std::vector<index_t> in_ptr;
  std::vector<Incoming> in;

  /// Backward gather runs (CSR over supernodes).
  std::vector<index_t> run_ptr;
  std::vector<Run> runs;

  [[nodiscard]] index_t n_tasks() const {
    return static_cast<index_t>(task_root.size());
  }
  /// Arena entries needed per RHS column: one slot per below-row entry.
  [[nodiscard]] std::size_t arena_entries_per_rhs() const {
    return static_cast<std::size_t>(sym->sn_row_ptr[sym->n_supernodes]);
  }
};

/// Reusable solve scratch: the update arena for one RHS block. ensure()
/// grows (never shrinks) the arena; contents need no clearing between
/// solves — each supernode's slice is fully overwritten before it is read.
struct SolveWorkspace {
  std::vector<real_t> arena;
  index_t width = 0;

  void ensure(const SolveSchedule& schedule, index_t block_width) {
    width = block_width;
    const std::size_t need =
        schedule.arena_entries_per_rhs() * static_cast<std::size_t>(width);
    if (arena.size() < need) arena.resize(need);
  }
};

}  // namespace parfact
