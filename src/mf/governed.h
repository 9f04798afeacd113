// Budget-governed factorization: the admission-control front door of the
// multifrontal engines.
//
// Degradation ladder, decided *before* any numeric allocation from the
// symbolic working-set estimate (symbolic/working_set.h):
//
//   1. in-core  — the full factor plus the update stack fits the budget;
//                 reserve it and run the engine the engine rule picks.
//   2. spill    — only the OOC resident set (update stack + one streamed
//                 panel) fits; the serial driver writes the panels through
//                 the checksummed scratch file. Same postorder and kernels
//                 as in-core, so the spilled panels are bitwise identical
//                 to the in-core factor.
//   3. rejected — not even the spill resident set fits; return a diagnosed
//                 kResourceExhausted carrying estimated vs budgeted bytes.
//                 Nothing was allocated, nothing leaks.
//
// ABFT is a property of the run on either rung, and its state is reserved
// with the rung (a repair may hold more while it runs, see
// abft_state_bytes). An unlimited budget still meters the reservation, so
// peak accounting stays meaningful.
#pragma once

#include <optional>
#include <string>

#include "mf/abft.h"
#include "mf/multifrontal.h"
#include "mf/ooc.h"
#include "support/resource.h"
#include "symbolic/working_set.h"

namespace parfact {

/// How the budget admitted (or refused) a factorization.
enum class Admission {
  kUnlimited,  ///< no budget limit; the factor was reserved and metered
  kInCore,     ///< full working set reserved, normal in-core factor
  kSpill,      ///< panels spilled through the OOC scratch file
  kRejected,   ///< even the spill resident set exceeds the budget
};

/// Short stable name ("unlimited", "in-core", "spill", "rejected").
[[nodiscard]] const char* admission_name(Admission a);

struct GovernedOptions {
  FactorKind kind = FactorKind::kCholesky;
  PivotPolicy pivot = {.boost = true};
  /// Workers for the task DAG (see runs_task_dag).
  ThreadPool* pool = nullptr;
  /// ABFT checks, injection and repair on the serial driver; nullopt = off.
  std::optional<AbftOptions> abft;
  /// Scratch-file path for the spill rung; empty disables spilling (the
  /// ladder then goes straight from in-core to rejected).
  std::string spill_path;
  CancelToken cancel;
};

/// The ladder's admission decision, made before any numeric allocation.
struct AdmissionDecision {
  Admission admission = Admission::kRejected;
  /// Keeps the admitted rung's bytes charged against the budget for as
  /// long as it is held (empty if rejected).
  Reservation reservation;
  WorkingSetEstimate estimate;  ///< the hookless working set
  Status status;  ///< kResourceExhausted with the byte counts if rejected
};

/// The one admission rule: reserves the highest rung above that fits
/// `budget` for a run with `opts` — the estimate's in-core bytes, else its
/// spill bytes when opts.spill_path is set, plus abft_state_bytes when
/// opts.abft is. multifrontal_factorize_governed and the Solver's fused
/// factor+solve both admit through it.
[[nodiscard]] AdmissionDecision admit_factorization(
    const SymbolicFactor& sym, ResourceBudget& budget,
    const GovernedOptions& opts);

/// The engine rule, used by every numeric entry point: the task DAG runs
/// when `pool` has more than one worker, the budget is unlimited and ABFT
/// is off; the serial driver otherwise (its postorder memory profile is
/// exactly what admission reserved, and it carries the ABFT hooks).
[[nodiscard]] bool runs_task_dag(const ThreadPool* pool, bool budget_limited,
                                 bool abft);

/// Outcome of a governed factorization: the admission decision, whose
/// `status` becomes the run's, plus the run. Exactly one of `factor` /
/// `ooc` is engaged on success (by `admission`); both are empty on failure,
/// and so is the `reservation`, which otherwise keeps the factor's bytes
/// charged for as long as the caller holds the result (or moves it out).
struct GovernedFactorizeResult : AdmissionDecision {
  std::optional<CholeskyFactor> factor;
  std::optional<OocCholeskyFactor> ooc;
  FactorStats stats;
  std::size_t bytes_spilled = 0;  ///< scratch-file bytes written (spill only)
  /// At-rest column sums of an in-core ABFT factor (empty otherwise).
  FactorChecksums checksums;
};

/// Runs the ladder above against `budget`. Never throws: cancellation,
/// breakdown, corruption, and rejection all come back as Status codes.
[[nodiscard]] GovernedFactorizeResult multifrontal_factorize_governed(
    const SymbolicFactor& sym, ResourceBudget& budget,
    const GovernedOptions& opts = {});

/// In-place counterpart for `factor`, an earlier run's in-core factor whose
/// reservation against `budget` still holds it: no admission and no
/// allocation, the same engine and hooks, a bitwise-identical result.
/// Never throws; on failure the panels hold partial values.
[[nodiscard]] Status multifrontal_refactor_governed(
    const SymbolicFactor& sym, const ResourceBudget& budget,
    const GovernedOptions& opts, CholeskyFactor& factor, FactorStats& stats,
    FactorChecksums& checksums);

}  // namespace parfact
