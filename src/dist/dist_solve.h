// Distributed supernodal triangular solves on the mpsim machine.
//
// Forward sweep (postorder): for each front, the diagonal-block owners solve
// their panel rows (after reducing partial sums along their grid row),
// broadcast the solved segment down the grid column, owners of the L21
// blocks accumulate update partials, and the below-row contributions are
// reduced to one collector per block row and routed up to the parent's
// owners — the solve-phase analogue of extend-add.
//
// Backward sweep (reverse postorder): maintains the invariant that every
// participant of a front knows the solution at the front's below rows when
// the front is processed (parents broadcast panel solutions to all their
// participants, and child rank sets nest inside parent rank sets, so the
// values are already local — zero extra messages to enter a child).
//
// Both sweeps compute on a fixed partition of the right-hand sides into
// blocks of config.rhs_block columns; the two schedules share that
// partition and therefore every floating-point operation sequence:
//
//   kBlocking  — the seed protocol: one full-width message per exchange
//                (all RHS blocks travel together), blocking recvs.
//   kPipelined — built on the mpsim isend/irecv request layer: every
//                exchange ships per-RHS-block messages the moment that
//                block's values exist, receives are preposted and waited
//                per block, and the below-row reduction aggregates all of
//                a rank's block rows into one message per destination.
//                Reductions and child contributions for block k+1 are in
//                flight while block k computes — within a front and,
//                through the per-block extend-add routing, up the tree.
//
// The solutions are bitwise identical across the two schedules (and under
// an active FaultPlan); they differ only in virtual time, idle wait, and
// message counts, surfaced through DistSolveResult::run.
#pragma once

#include <vector>

#include "dist/mapping.h"
#include "mf/factor.h"
#include "mpsim/machine.h"
#include "support/status.h"

namespace parfact {

/// Scheduling knobs of the distributed solve.
struct DistSolveConfig {
  enum class Schedule {
    kBlocking,   ///< full-width messages, blocking receives (baseline)
    kPipelined,  ///< per-RHS-block messages on the request layer
  };
  Schedule schedule = Schedule::kPipelined;
  /// Right-hand-side columns per pipeline stage. Both schedules compute on
  /// this block partition — identical arithmetic, different messaging.
  index_t rhs_block = 8;
};

struct DistSolveResult {
  /// Solution, n x nrhs column-major (postordered index space). Meaningful
  /// only when `status.ok()`.
  std::vector<real_t> x;
  mpsim::RunStats run;
  Status status;
};

/// Solves A x = b with the distributed factor layout described by `map`.
/// `factor` is the gathered factor from distributed_factor (each rank reads
/// only the blocks it owns under `map`); `b` is n x nrhs, replicated. With
/// an active `faults` plan, point-to-point messages ride the mpsim retry
/// protocol: the solution is bitwise-identical to the fault-free run, or
/// the run throws a diagnosed StatusError — never a hang.
[[nodiscard]] DistSolveResult distributed_solve(
    const SymbolicFactor& sym, const FrontMap& map,
    const CholeskyFactor& factor, const std::vector<real_t>& b, index_t nrhs,
    const mpsim::MachineModel& model = {},
    const mpsim::FaultPlan& faults = {}, const DistSolveConfig& config = {});

/// Non-throwing variant: failures land in `result.status`.
[[nodiscard]] DistSolveResult distributed_solve_checked(
    const SymbolicFactor& sym, const FrontMap& map,
    const CholeskyFactor& factor, const std::vector<real_t>& b, index_t nrhs,
    const mpsim::MachineModel& model = {},
    const mpsim::FaultPlan& faults = {}, const DistSolveConfig& config = {});

}  // namespace parfact
