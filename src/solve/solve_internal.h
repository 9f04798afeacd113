// Internal: per-supernode solve steps of the schedule-driven engine,
// exposed so the fused factor+solve driver (fused.h) can emit them as
// task-DAG nodes. Semantics and bitwise behaviour are exactly those of the
// sweeps in solve.cc — one step touches only rows its supernode owns plus
// (forward) its own arena slice, reading sources in fixed ascending order.
// Each step takes supernode s's panel (front_order(s) x sn_cols(s)) from
// its caller, so the same steps serve resident and spilled factors.
#pragma once

#include "dense/matrix_view.h"
#include "solve/solve_schedule.h"

namespace parfact::detail {

/// Forward-solves supernode s's panel rows for the current RHS block:
/// pulls pending descendant updates from the arena (ascending source
/// order), runs the panel TRSM, then deposits −L21·x1 into this
/// supernode's arena slice. Requires every source supernode's step done
/// and ws sized for x.cols.
void forward_supernode(ConstMatrixView panel, const SolveSchedule& sched,
                       SolveWorkspace& ws, MatrixView x, index_t s);

/// Backward-solves supernode s's panel rows: gathers x at the below rows
/// (ancestors' rows, already solved) and applies −L21ᵀ before the
/// transposed panel TRSM.
void backward_supernode(ConstMatrixView panel, const SolveSchedule& sched,
                        SolveWorkspace& ws, MatrixView x, index_t s);

}  // namespace parfact::detail
