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
// blocks of config.rhs_block columns, and every exchange rides the mpsim
// isend/irecv request layer one RHS block at a time: a block's message
// leaves the moment its values exist, receives are preposted and waited
// per block, and the below-row reduction aggregates all of a rank's block
// rows into one message per destination. Reductions and child
// contributions for block k+1 are in flight while block k computes —
// within a front and, through the per-block extend-add routing, up the
// tree. The block width is the one messaging choice: narrow blocks overlap
// more at the price of more messages, and rhs_block >= nrhs sends every
// exchange as one message.
//
// For a fixed rhs_block the solution is bitwise reproducible, also under
// an active FaultPlan; virtual time, idle wait and message counts are
// surfaced through DistSolveResult::run.
#pragma once

#include <vector>

#include "dist/mapping.h"
#include "mf/factor.h"
#include "mpsim/machine.h"
#include "support/status.h"

namespace parfact {

/// Messaging knob of the distributed solve.
struct DistSolveConfig {
  /// Right-hand-side columns per message and per compute stage. Narrow
  /// blocks pay off when a block's wire time is comparable to the message
  /// latency; on a high-latency network fewer, wider messages win.
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
