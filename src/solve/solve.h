// Supernodal triangular solves, iterative refinement and residual checks.
//
// All solves operate in the *postordered* index space of the SymbolicFactor
// (the api module composes the fill-reducing permutation and the postorder
// for callers working in original coordinates). Right-hand sides are dense
// n x nrhs column-major blocks.
//
// There is exactly one sweep implementation: the schedule-driven engine.
// It processes right-hand sides in fixed-width blocks of
// schedule.rhs_block columns (each factor panel is streamed once per
// block), pulls forward updates through the schedule's precomputed plans
// into a reusable workspace arena, and on a ThreadPool runs each sweep as
// one rt::TaskGraph over the schedule's tree partition — with results
// bitwise-identical to the serial sweep (see solve_schedule.h for why).
// The engine takes each supernode's panel from its caller: a resident
// factor hands out views of its own storage, a spilled one (mf/ooc.h)
// reads each panel back from its scratch file into one reused buffer,
// serially and in file order. The per-block arithmetic is the same, so a
// spilled factor answers bit for bit like the resident one.
#pragma once

#include <functional>
#include <optional>
#include <span>

#include "dense/matrix_view.h"
#include "mf/factor.h"
#include "solve/solve_schedule.h"
#include "sparse/sparse_matrix.h"
#include "support/types.h"

namespace parfact {

class OocCholeskyFactor;
class ThreadPool;

/// x := A⁻¹ x: forward, (diagonal,) backward — per RHS block, so each
/// factor panel is read once per schedule.rhs_block right-hand sides.
/// `pool == nullptr` (or a one-worker pool) runs the serial postorder
/// sweeps; otherwise each sweep runs as one task graph on the assembly
/// tree (rt::run_graph), bitwise identical to serial.
void solve_in_place(const CholeskyFactor& factor, MatrixView x,
                    const SolveSchedule& schedule, SolveWorkspace& workspace,
                    ThreadPool* pool = nullptr);

/// The same solve against a spilled factor: every panel is read back and
/// digest-checked (read_panel's retry and kDataCorruption rules) once per
/// sweep per RHS block. Serial, since the panels share one buffer.
void solve_in_place(const OocCholeskyFactor& factor, MatrixView x,
                    const SolveSchedule& schedule, SolveWorkspace& workspace);

/// Single-shot entry point: builds a transient full-width schedule and runs
/// the engine serially. Prefer the schedule-taking overload when solving
/// more than once against the same factor.
void solve_in_place(const CholeskyFactor& factor, MatrixView x);

/// x := A⁻¹ x on an n x k postordered block, k ≥ 1 — what refinement and
/// condition estimation call, whatever the factor's storage.
using SolveFn = std::function<void(MatrixView)>;

/// Normwise relative residual ‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞) for the
/// symmetric lower-stored `a`, single right-hand side; +∞ when any entry
/// of b − A x is not finite (a NaN or infinite x never reads as solved).
[[nodiscard]] real_t relative_residual(const SparseMatrix& lower_a,
                                       std::span<const real_t> x,
                                       std::span<const real_t> b);

struct RefinementResult {
  int iterations = 0;     ///< corrections applied
  real_t residual = 0.0;  ///< final worst per-column relative residual
};

/// Iterative refinement of the n x nrhs block `x` (already holding the
/// first solve's result) against `b`: up to `passes` corrections
/// x += solve(b − A x), each one SpMV per column plus one blocked solve.
/// With `stop_at`, stops before a correction once the worst per-column
/// relative residual is at or below it; without, always runs `passes`.
/// The residual r = b − A x of each pass serves both the test and the
/// correction's right-hand side. passes == 0 only measures.
RefinementResult refine(const SparseMatrix& lower_a, ConstMatrixView b,
                        MatrixView x, const SolveFn& solve, int passes,
                        std::optional<real_t> stop_at = std::nullopt);

}  // namespace parfact
