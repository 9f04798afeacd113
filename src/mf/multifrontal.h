// Multifrontal Cholesky factorization (serial and shared-memory parallel).
//
// For each supernode (in postorder) a dense *front* is assembled from the
// original matrix entries plus the children's update blocks (extend–add),
// then partially factorized: the supernode's columns are eliminated and the
// trailing Schur complement becomes this front's update block, passed to the
// parent. The elimination-tree structure makes disjoint subtrees completely
// independent, which is what the task-DAG engine exploits.
// Two drivers implement it: the serial postorder driver, whose per-front
// hooks carry OOC spill and ABFT (front_kernel.h), and the task DAG
// (dag_factor.h); the engine rule in governed.h picks between them.
#pragma once

#include "mf/factor.h"
#include "support/resource.h"
#include "support/status.h"
#include "support/thread_pool.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

/// Which numeric factorization to compute on each front.
enum class FactorKind {
  kCholesky,  ///< A = L Lᵀ, requires SPD
  kLdlt,      ///< A = L D Lᵀ without pivoting, for symmetric quasi-definite
              ///< (strongly factorizable) matrices — e.g. KKT saddle points
};

/// Static-pivoting policy threaded through every factorization engine.
/// Disabled (the historical throw-on-breakdown behavior) by default; when
/// `boost` is set, pivots with |pivot| <= pivot_magnitude(policy, A) are
/// replaced by ±that magnitude and counted instead of aborting. The
/// magnitude is sqrt(eps) * max|A|, the SuperLU_DIST static-pivoting
/// magnitude, whose accuracy loss iterative refinement recovers (see
/// DESIGN.md "Robustness & failure model").
struct PivotPolicy {
  bool boost = false;
};

/// The boost magnitude `policy` gives the matrix `a`: sqrt(eps) * max|A|
/// with boosting on, 0 with it off. A zero matrix also gets 0, and a
/// magnitude of 0 boosts nothing (PivotBoost), so its zero pivots break
/// down instead of being "boosted" to zero.
[[nodiscard]] real_t pivot_magnitude(PivotPolicy policy,
                                     const SparseMatrix& a);

/// Serial multifrontal factorization of sym.a (the postordered matrix held
/// by the symbolic phase): the serial driver with no hooks — the bitwise
/// oracle for every other engine. Without pivot
/// boosting, throws parfact::Error (specifically StatusError with
/// StatusCode::kBreakdown) if a front hits a non-positive (Cholesky) or
/// zero (LDLᵀ) pivot; with boosting, tiny pivots are perturbed and counted
/// in stats->pivot_perturbations. The Status-returning front door is
/// multifrontal_factorize_governed (governed.h).
///
/// Every engine below polls `cancel` at supernode (or DAG-task) granularity
/// and unwinds with StatusError(kCancelled / kDeadlineExceeded) when it
/// trips, leaving the pool reusable and no partial factor behind.
[[nodiscard]] CholeskyFactor multifrontal_factor(
    const SymbolicFactor& sym, FactorStats* stats = nullptr,
    FactorKind kind = FactorKind::kCholesky, PivotPolicy pivot = {},
    CancelToken cancel = {});

/// Re-runs the serial numeric factorization *into an existing allocation*:
/// `factor` must have been built from this `sym` (checked); each panel is
/// zeroed in place right before its front is assembled and overwritten
/// with the factor of the current sym.a values.
/// No ordering, symbolic analysis, or panel allocation happens — this is
/// the numeric-only fast path behind Solver::refactorize. Bitwise identical
/// to a cold multifrontal_factor on the same values. On throw (breakdown /
/// cancellation) the panel contents are unspecified until the next
/// factorization into `factor` overwrites them.
void multifrontal_refactor(const SymbolicFactor& sym, CholeskyFactor& factor,
                           FactorStats* stats = nullptr,
                           FactorKind kind = FactorKind::kCholesky,
                           PivotPolicy pivot = {}, CancelToken cancel = {});

/// A front whose factorization flops reach this threshold is emitted by the
/// task-DAG engine as a pipeline of row-slab tasks that all workers share,
/// instead of as a single fused elimination task. ~20 Mflop is a few
/// milliseconds on the packed kernel engine — large enough that per-task
/// overhead vanishes, small enough that the top of a 3-D assembly tree is
/// covered.
inline constexpr count_t kCoopFrontFlops = 20'000'000;

/// Shared-memory parallel multifrontal factorization on the task-DAG
/// runtime (src/runtime): every front becomes either one fused elimination
/// task (fronts below `coop_flops`) or an assemble → POTRF → TRSM-slab →
/// update-slab pipeline, and the whole tree runs as a single dependency
/// graph under the work-stealing scheduler with critical-path priorities —
/// no phase barrier between tree-parallel subtrees and the top-of-tree
/// fronts. Extend-add order is fixed by child index and every slab kernel
/// is bitwise identical to its serial counterpart, so the factor matches
/// multifrontal_factor exactly, independent of thread count and schedule.
[[nodiscard]] CholeskyFactor multifrontal_factor_parallel(
    const SymbolicFactor& sym, ThreadPool& pool, FactorStats* stats = nullptr,
    FactorKind kind = FactorKind::kCholesky,
    count_t coop_flops = kCoopFrontFlops, PivotPolicy pivot = {},
    CancelToken cancel = {});

/// Task-DAG counterpart of multifrontal_refactor: re-runs the parallel
/// numeric factorization into an existing allocation (same contract).
void multifrontal_refactor_parallel(const SymbolicFactor& sym,
                                    CholeskyFactor& factor, ThreadPool& pool,
                                    FactorStats* stats = nullptr,
                                    FactorKind kind = FactorKind::kCholesky,
                                    count_t coop_flops = kCoopFrontFlops,
                                    PivotPolicy pivot = {},
                                    CancelToken cancel = {});

}  // namespace parfact
