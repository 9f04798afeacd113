// Fused factor+solve: one task graph for the numeric factorization AND the
// first forward-solve sweep.
//
// The classic pipeline has a hard barrier between factorization and solve:
// every front finishes before the first triangular-solve flop runs. But a
// supernode's forward solve only needs its own panel and its descendants'
// solves — exactly the subtree that factored first. Hanging the solve
// schedule's per-supernode forward steps off the factor DAG's panel-ready
// tags lets bottom subtrees stream into the solve while the top of the
// tree is still factoring, which is where the factor DAG is starved for
// parallelism anyway. The diagonal/backward sweeps (which need the *whole*
// factor) and any remaining RHS blocks run after the graph drains.
//
// Results are bitwise identical to multifrontal_factor_parallel followed
// by solve_in_place: the forward steps use the pull-based arena plan whose
// per-element addition order is schedule-independent, and the RHS block
// partition is the same.
#pragma once

#include <span>

#include "mf/factor.h"
#include "mf/multifrontal.h"
#include "solve/solve_schedule.h"
#include "support/thread_pool.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

/// Factorizes sym.a and solves A x = x in place (x: n × nrhs postordered
/// right-hand sides, overwritten with the solution), overlapping the first
/// RHS block's forward sweep with the factorization. `schedule` must be
/// built from `sym`. Throws like multifrontal_factor_parallel on breakdown
/// and cancellation (factor and x are then partial); `cancel` is polled per
/// graph task. Returns the factor for subsequent solves against more
/// right-hand sides.
[[nodiscard]] CholeskyFactor multifrontal_factor_and_solve(
    const SymbolicFactor& sym, MatrixView x, const SolveSchedule& schedule,
    SolveWorkspace& workspace, ThreadPool& pool, FactorStats* stats = nullptr,
    FactorKind kind = FactorKind::kCholesky,
    count_t coop_flops = kCoopFrontFlops, PivotPolicy pivot = {},
    CancelToken cancel = {});

}  // namespace parfact
