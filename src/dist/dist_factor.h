// Distributed-memory multifrontal Cholesky on the mpsim machine.
//
// SPMD structure (every rank runs the same program):
//   for each supernode s in postorder that this rank participates in:
//     1. allocate the locally owned blocks of the front (block-cyclic over
//        the front's process grid) and post the receives of the extend-add
//        contributions from every rank of every child,
//     2. scatter this rank's share of the original matrix entries,
//     3. merge the contributions (collective schedules: all of them now;
//        kTaskDag: each parent panel's just before its first touch in 4),
//     4. run the block-cyclic right-looking partial Cholesky, one loop for
//        every schedule: per panel block-column kb — post its receives,
//        diagonal POTRF at its owner, L_kk sent down the grid column, local
//        TRSMs, panel blocks sent along their grid row (A-side) and grid
//        column (B-side), local GEMM/SYRK trailing updates one block column
//        at a time; with lookahead, panel kb+1 starts right after the
//        update of block column kb+1, otherwise after all of kb's updates,
//     5. store the owned panel blocks into the (shared, disjointly written)
//        factor, pack the update region by destination parent rank (and,
//        under kTaskDag, parent panel) and send.
//
// Every receive is a posted request (Comm::irecv + wait / wait_any), so
// every wait is bounded by FaultPlan::recv_timeout_host_seconds.
//
// Communication cost is dominated by step 4: each panel block travels to
// O(pr + pc) ranks, which for the 2-D grids is O(√np) — the paper's key
// scaling property; with the 1-D layout (pc == 1, pr == np) the same code
// degenerates to full-panel broadcasts with O(np) volume, giving the
// MUMPS-class baseline for experiment T3/F5.
#pragma once

#include "dist/checkpoint.h"
#include "dist/config.h"
#include "dist/mapping.h"
#include "mf/factor.h"
#include "mf/multifrontal.h"
#include "mpsim/machine.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

struct DistFactorResult {
  /// Gathered factor (every rank deposits its panel blocks; the result is
  /// identical in layout to the serial multifrontal factor). Meaningful
  /// only when `status.ok()`.
  CholeskyFactor factor;
  /// Virtual-time and traffic statistics of the run.
  mpsim::RunStats run;
  /// Outcome: kOk/kPerturbed (with the total pivot-perturbation count
  /// across all ranks), or the failure that stopped the run.
  Status status;
  /// Extend-add traffic: wire bytes shipped child → parent, summed over
  /// all ranks. Every entry travels as one packed 8-byte value, so the
  /// entry count is extend_add_bytes / sizeof(real_t).
  count_t extend_add_bytes = 0;

  DistFactorResult(const SymbolicFactor& sym) : factor(sym) {}
};

/// Runs the distributed factorization on map.n_ranks simulated ranks.
/// Supports both Cholesky (SPD) and no-pivot LDLᵀ (symmetric
/// quasi-definite); throws parfact::Error (StatusError) on a bad pivot
/// unless `pivot` enables boosting. With an active `faults` plan the
/// mpsim retry protocol heals injected message faults — the factor is
/// bitwise-identical to the fault-free run — or the run fails with a clean
/// diagnosed StatusError, never a hang or a wrong answer.
///
/// Crash tolerance: with `faults.crashes` entries and `faults.spare_ranks`
/// configured, a spare adopts each crashed rank (deterministic assignment),
/// restores from the dead rank's buddy checkpoint per `resilience`, and
/// re-executes only the unfinished fronts; the gathered factor and the
/// pivot-perturbation count are again bitwise-identical to the fault-free
/// run, with `result.run.ranks_recovered` and
/// `result.run.recovery_overhead_seconds` quantifying the recovery. A crash
/// with no spare left ends in a diagnosed kRankFailure.
///
/// `config` selects the block-column schedule (blocking, depth-1 panel
/// lookahead, or fan-both task DAG). All schedules produce the bitwise
/// identical factor, perturbation count and extend-add volume, under
/// faults and crash recovery included; they differ only in virtual time
/// and message count.
[[nodiscard]] DistFactorResult distributed_factor(
    const SymbolicFactor& sym, const FrontMap& map,
    const mpsim::MachineModel& model = {},
    FactorKind kind = FactorKind::kCholesky, PivotPolicy pivot = {},
    const mpsim::FaultPlan& faults = {},
    const ResiliencePolicy& resilience = {}, const DistConfig& config = {});

/// Non-throwing variant: failures land in `result.status` instead of
/// propagating as exceptions.
[[nodiscard]] DistFactorResult distributed_factor_checked(
    const SymbolicFactor& sym, const FrontMap& map,
    const mpsim::MachineModel& model = {},
    FactorKind kind = FactorKind::kCholesky, PivotPolicy pivot = {},
    const mpsim::FaultPlan& faults = {},
    const ResiliencePolicy& resilience = {}, const DistConfig& config = {});

}  // namespace parfact
