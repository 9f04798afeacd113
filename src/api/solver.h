// High-level solver facade: the public API a downstream user calls.
//
// Composes the full pipeline of the paper's solver:
//   analyze()   — fill-reducing ordering (nested dissection by default),
//                 postorder, supernodes, assembly tree;
//   factorize() — multifrontal Cholesky (serial or shared-memory parallel);
//   solve()     — triangular solves + optional iterative refinement,
// with all permutations handled internally: callers stay in their original
// row/column numbering throughout.
//
// The distributed/simulated execution paths (dist/, perf/) are deliberately
// separate entry points driven by the experiments; this facade is the
// "desktop" interface.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/symbolic_cache.h"
#include "dist/checkpoint.h"
#include "graph/ordering.h"
#include "mf/abft.h"
#include "mf/factor.h"
#include "mf/governed.h"
#include "mf/multifrontal.h"
#include "mf/ooc.h"
#include "mpsim/machine.h"
#include "solve/solve_schedule.h"
#include "sparse/sparse_matrix.h"
#include "support/resource.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

class ThreadPool;

struct SolverOptions {
  enum class Ordering { kNestedDissection, kMinimumDegree, kRcm, kNatural };
  Ordering ordering = Ordering::kNestedDissection;
  OrderingOptions nd;                  ///< nested-dissection knobs
  AmalgamationOptions amalgamation;    ///< supernode relaxation knobs
  int threads = 1;                     ///< factorization threads (>=1)
  int refinement_steps = 2;            ///< iterative-refinement iterations
  /// Cholesky for SPD input; LDLᵀ (no pivoting) for symmetric
  /// quasi-definite input such as KKT saddle-point systems.
  FactorKind factor_kind = FactorKind::kCholesky;
  /// Static pivoting: tiny/non-positive pivots are boosted to
  /// sqrt(eps)·max|A| (sign-preserving for LDLᵀ) instead of aborting the
  /// factorization. The perturbation count is surfaced in the report and
  /// the factorize() Status; accuracy is recovered by refinement or the
  /// solve_robust() escalation. Set false to restore throw-on-breakdown.
  bool static_pivoting = true;
  real_t pivot_threshold = 0.0;   ///< boost threshold; 0 = sqrt(eps)·max|A|
  real_t target_residual = 1e-10; ///< solve_robust() acceptance residual
  int cg_max_iterations = 500;    ///< solve_robust() fallback CG budget
  /// Right-hand-side columns per blocked triangular sweep: every factor
  /// panel is streamed once per block, so this is the solve phase's
  /// flops-per-byte knob (and the reproducibility granule — results are
  /// bitwise-stable for a fixed block width).
  index_t solve_rhs_block = 32;
  /// Iterative-refinement passes applied per solve_batch() call (one
  /// blocked correction sweep each; 0 disables refinement for batches).
  int batch_refinement_passes = 1;
  /// Crash-recovery configuration for factorize_distributed(): buddy
  /// checkpointing cadence and the optional checksummed scratch spill.
  /// Spare ranks themselves are part of the mpsim::FaultPlan.
  ResiliencePolicy resilience;
  /// Memory budget for factorize() (0 = unlimited). Admission is checked
  /// against the symbolic working-set estimate before any numeric
  /// allocation; a factorization that does not fit in-core degrades to the
  /// checksummed OOC spill (panels on disk, bitwise-identical factor), and
  /// one that cannot even spill returns kResourceExhausted. A limited
  /// budget runs the serial driver — its postorder memory profile is
  /// exactly what admission reserved (with abft, the checks' state is
  /// reserved too; only an ABFT repair may exceed the reservation while it
  /// re-runs a subtree).
  std::size_t memory_budget_bytes = 0;
  /// Wall-clock deadline per factorize()/factorize_and_solve() call
  /// (host seconds; 0 = none). A deadline firing mid-factor returns
  /// kDeadlineExceeded within one task granule, with the solver reusable.
  /// factorize_distributed() maps it onto the mpsim run watchdog
  /// (kCommTimeout) when the fault plan does not set its own.
  double deadline_seconds = 0.0;
  /// OOC scratch file for budget-driven spill; empty = a unique /tmp path.
  std::string spill_path;
  /// ABFT checksum-carrying factorization (DESIGN.md §5f): every numeric
  /// run takes the serial driver with a column-sum identity checked after
  /// every kernel stage; detected corruption is localized to one front and
  /// repaired by bounded recompute, bitwise identical to a clean run. Works
  /// on both budget rungs (in-core and spill), whose reservations then
  /// include the checks' state; a repair transiently holds more while it
  /// re-runs a subtree. An in-core run also arms the at-rest checksums that
  /// let post-solve verification localize storage corruption.
  bool abft = false;
  real_t abft_tolerance = 1e-8;  ///< ABFT identity tolerance
  /// Post-solve end-to-end verification of solve()/solve_multi() results:
  /// componentwise scaled residual max_i |b−Ax|_i / (|A||x|+|b|)_i against
  /// verify_tolerance. kSampled checks the first right-hand side of each
  /// call; kFull checks every column. On failure the solver verifies the
  /// stored factor against its checksums, recomputes the corrupt subtree
  /// (or the whole factor when no checksums are armed), re-solves, and
  /// only if verification still fails throws kDataCorruption — a silent
  /// wrong answer is never returned.
  enum class Verify { kOff, kSampled, kFull };
  Verify verify = Verify::kOff;
  real_t verify_tolerance = 1e-8;
  /// Fault-campaign hook: one seeded single-bit flip injected into the
  /// numeric pipeline. Factorization sites (kAssembly..kUpdate) require
  /// abft; kStoredFactor corrupts the in-core factor right after
  /// factorize() so the at-rest/verify defenses are exercised.
  std::optional<SdcInjection> inject_sdc;
  /// Pattern-keyed analysis cache shared across Solver instances (and
  /// SolverService sessions). When set, analyze() first looks up the input
  /// pattern + ordering configuration and adopts a cached analysis on a hit
  /// — bitwise identical to a cold analyze — instead of re-running ordering
  /// and symbolic analysis; misses populate the cache. Must outlive the
  /// Solver. nullptr (default) keeps analyze() fully cold.
  SymbolicCache* symbolic_cache = nullptr;
  /// Externally owned worker pool used (when threads > 1) instead of a pool
  /// created per factorize/refactorize call. Lets many solvers — e.g. the
  /// sessions of one SolverService — share workers. Must outlive the
  /// Solver; do not call solver methods from this pool's own worker threads.
  ThreadPool* shared_pool = nullptr;
};

/// Summary of the last analyze/factorize, in the units the paper reports.
struct SolverReport {
  count_t n = 0;
  count_t nnz_a = 0;
  count_t nnz_factor = 0;       ///< strict factor nonzeros
  count_t factor_flops = 0;
  index_t n_supernodes = 0;
  double analyze_seconds = 0.0;
  double factor_seconds = 0.0;
  std::size_t peak_update_bytes = 0;
  count_t pivot_perturbations = 0;  ///< static-pivot boosts in factorize()
  /// Resource governance of the last factorize(): how admission decided,
  /// the budget high-water mark (reserved bytes; equals the working-set
  /// estimate of the admitted rung), and scratch-file bytes written when
  /// the factor spilled out-of-core.
  Admission admission = Admission::kUnlimited;
  std::size_t peak_bytes = 0;
  std::size_t bytes_spilled = 0;
  /// factorize_distributed() only: rank crashes a spare recovered, and the
  /// virtual-time cost of those recoveries (lost work re-executed plus
  /// checkpoint restore transfers).
  count_t rank_failures_recovered = 0;
  double recovery_virtual_seconds = 0.0;
  /// factorize_distributed() only: communication/computation overlap
  /// diagnostics of the simulated run. Idle wait is the summed virtual time
  /// ranks spent blocked on message arrival; overlap efficiency is
  /// 1 − idle / Σ rank seconds (1.0 means no rank ever stalled on a
  /// message); max in-flight is the high-water mark of delivered-but-not-
  /// yet-consumed messages across the machine.
  double comm_idle_wait_seconds = 0.0;
  double comm_overlap_efficiency = 1.0;
  count_t max_in_flight_messages = 0;
  /// factorize_distributed() only: fan-both pool diagnostics. wait_any
  /// calls is the total (summed over ranks) number of Comm::wait_any pool
  /// waits the schedule issued; out-of-order counts messages that arrived
  /// earlier than a message posted before them in the same pool (how much
  /// reordering the arrival-buffering had to absorb). Both are zero for
  /// the kBlocking/kLookahead schedules, which never use a pool.
  count_t comm_wait_any_calls = 0;
  count_t comm_messages_out_of_order = 0;
  /// solve_batch() only: throughput of the last batch. bytes/solve counts
  /// the factor-panel and workspace traffic of the blocked sweeps divided
  /// by the number of right-hand sides — the amortization the batch buys.
  index_t batch_rhs = 0;
  double batch_seconds = 0.0;
  double batch_solves_per_second = 0.0;
  double batch_bytes_per_solve = 0.0;
  real_t batch_residual = 0.0;  ///< worst per-column residual (refined)
  /// SDC defense: ABFT identities evaluated and mismatches detected by the
  /// last factorize(), fronts recomputed by factor-time or at-rest repair,
  /// whether any corruption was detected (factor-time or post-solve), and
  /// the worst componentwise scaled residual of the last verified solve.
  count_t abft_checks = 0;
  count_t abft_detections = 0;
  count_t fronts_recomputed = 0;
  bool corruption_detected = false;
  real_t verify_residual = 0.0;
  /// Serving counters (cumulative over the Solver's lifetime — they survive
  /// the per-analyze report reset). Hits/misses count this solver's own
  /// SymbolicCache lookups; refactorizes counts refactorize() calls.
  /// sessions_evicted / factor_cache_bytes are stamped by SolverService
  /// (zero for a standalone Solver).
  count_t symbolic_cache_hits = 0;
  count_t symbolic_cache_misses = 0;
  count_t refactorizes = 0;
  count_t sessions_evicted = 0;
  std::size_t factor_cache_bytes = 0;
};

/// Which path of the solve_robust() escalation produced the answer.
enum class SolvePath { kNone, kDirect, kRefined, kIterativeFallback };

[[nodiscard]] const char* solve_path_name(SolvePath path);

/// Result of the escalating solve: the cheapest path that met
/// options.target_residual, or the best effort with a diagnosing status.
struct RobustSolveResult {
  std::vector<real_t> x;          ///< best solution found (original ordering)
  Status status;                  ///< kOk/kPerturbed, or kNoConvergence
  SolvePath path = SolvePath::kNone;
  real_t residual = 0.0;          ///< scaled residual of x
  int iterations = 0;             ///< CG iterations (fallback path only)
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {});
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;

  /// Symbolic phase. `lower` must be the lower triangle of an SPD matrix
  /// with a fully populated diagonal. Keeps a permuted copy internally.
  void analyze(const SparseMatrix& lower);

  /// Numeric phase; requires analyze() first. With options.static_pivoting
  /// (the default) breakdown pivots are boosted and reported through the
  /// returned Status (kOk, or kPerturbed with the perturbation count)
  /// instead of throwing; with static_pivoting=false a non-SPD/-factorizable
  /// matrix throws parfact::Error as before.
  ///
  /// Runs under options.memory_budget_bytes / deadline_seconds when set:
  /// the returned Status is then also how kResourceExhausted, kCancelled
  /// and kDeadlineExceeded are reported (report().admission records which
  /// rung of the degradation ladder ran). After any such failure the same
  /// Solver instance is immediately reusable — a subsequent unconstrained
  /// factorize() produces a factor bitwise identical to an uninterrupted
  /// run.
  Status factorize();

  /// Numeric-only re-factorization: installs `new_values` (same length and
  /// order as the analyze() input's value array — the pattern must be
  /// unchanged) and re-runs the numeric phase. Whenever an in-core factor
  /// admitted under the current memory budget exists, this skips ordering,
  /// symbolic analysis, admission and allocation, writing into the existing
  /// panels (the serving fast path) under every option factorize() honours;
  /// otherwise it is factorize() on the new values. Either way the factor
  /// and the report equal analyze()+factorize() on the same values. A
  /// length mismatch returns kInvalidInput; cancellation, deadlines and
  /// breakdown behave as in factorize(), and a failed run drops the factor.
  Status refactorize(std::span<const real_t> new_values);

  /// Moves the in-core factor to the checksummed OOC scratch file (panels
  /// on disk, LDLᵀ diagonal resident), releasing the panel memory and any
  /// budget reservation. Solves keep working, streamed from disk. Used by
  /// SolverService to evict cold sessions; no-op Status if already spilled.
  Status spill_factor();

  /// Loads a spilled factor back in-core (checksum-verified panel reads;
  /// a corrupted scratch file returns kDataCorruption and keeps the spilled
  /// state). No-op Status if already in-core.
  Status unspill_factor();

  /// Bytes held by the current factor: in-core panel + diagonal storage, or
  /// scratch-file bytes when spilled; 0 before factorize().
  [[nodiscard]] std::size_t factor_bytes() const;
  /// True when the factor currently lives in the OOC scratch file.
  [[nodiscard]] bool factor_spilled() const {
    return ooc_factor_.has_value();
  }

  /// Requests cooperative cancellation of the in-flight (or next)
  /// factorize()/factorize_and_solve() call from any thread; the cancelled
  /// call returns Status kCancelled. Completing a governed call re-arms a
  /// fresh cancellation scope, so cancel() never poisons later calls.
  void cancel();

  /// Adjusts the resource-governance knobs between calls (the remaining
  /// options stay fixed at construction).
  void set_memory_budget_bytes(std::size_t bytes);
  void set_deadline_seconds(double seconds);

  /// Distributed-memory numeric phase: runs the subtree-to-subcube
  /// multifrontal factorization on `n_ranks` simulated mpsim ranks and
  /// gathers the factor for the local solve paths. With a `faults` plan
  /// carrying Crash entries and spare ranks, recovery follows
  /// options.resilience (buddy checkpoints, spare adoption, partial
  /// replay); the report then carries `rank_failures_recovered` and
  /// `recovery_virtual_seconds`. Returns the factorization Status
  /// (kOk/kPerturbed, or the diagnosed failure — e.g. kRankFailure when a
  /// crash exhausts the spares) without throwing.
  Status factorize_distributed(int n_ranks,
                               const mpsim::MachineModel& model = {},
                               const mpsim::FaultPlan& faults = {});

  /// Fused numeric phase + first solve: factorizes and solves the n × nrhs
  /// column-major right-hand sides `b` in one task graph — forward solves
  /// on fully factored subtrees overlap the remaining factorization, so
  /// there is no factor→solve barrier. `x` receives the solutions in the
  /// caller's original ordering. Status, x, factor and report equal
  /// factorize() followed by solve_multi(b, nrhs) for every option; the
  /// graph is fused only when the engine rule picks the task DAG and no
  /// injection is set. Requires analyze().
  Status factorize_and_solve(std::span<const real_t> b, index_t nrhs,
                             std::vector<real_t>& x);

  /// Solves A x = b in the caller's original ordering; requires factorize().
  [[nodiscard]] std::vector<real_t> solve(std::span<const real_t> b) const;

  /// Blocked multiple-right-hand-side solve: `b` is n x nrhs column-major;
  /// returns the n x nrhs solution block (one factorization, one blocked
  /// triangular sweep — the engineering-workload pattern). solve() is this
  /// with nrhs == 1: there is exactly one sweep implementation.
  [[nodiscard]] std::vector<real_t> solve_multi(std::span<const real_t> b,
                                                index_t nrhs) const;

  /// Batched serving entry point: fuses `nrhs` independent right-hand
  /// sides (n x nrhs column-major) into blocked multi-RHS sweeps of
  /// options.solve_rhs_block columns plus options.batch_refinement_passes
  /// blocked refinement passes, and records per-batch throughput
  /// (solves/sec, bytes/solve, worst residual) in report(). The solutions
  /// are bitwise-identical to solve_multi() on the same block partition.
  [[nodiscard]] std::vector<real_t> solve_batch(std::span<const real_t> b,
                                                index_t nrhs) const;

  /// Solve with iterative refinement (options.refinement_steps iterations).
  [[nodiscard]] std::vector<real_t> solve_refined(
      std::span<const real_t> b) const;

  /// Escalating solve for perturbed or ill-conditioned factorizations:
  /// tries the plain direct solve, then iterative refinement, then an
  /// IC(0)-preconditioned CG fallback (warm-started from the best direct
  /// answer), stopping at the cheapest path whose scaled residual
  /// ‖b−Ax‖∞/(‖A‖∞‖x‖∞+‖b‖∞) meets options.target_residual. Always
  /// returns the best x found; status is kNoConvergence if no path met
  /// the target.
  [[nodiscard]] RobustSolveResult solve_robust(std::span<const real_t> b)
      const;

  /// Relative residual of a candidate solution in original ordering.
  [[nodiscard]] real_t residual(std::span<const real_t> x,
                                std::span<const real_t> b) const;

  [[nodiscard]] const SolverReport& report() const { return report_; }
  [[nodiscard]] const SymbolicFactor& symbolic() const;
  [[nodiscard]] const CholeskyFactor& factor() const;
  /// True once a factorization (in-core or spilled) is ready to solve with.
  [[nodiscard]] bool has_factor() const {
    return factor_.has_value() || ooc_factor_.has_value();
  }
  /// The disk-backed factor when the last factorize() spilled (asserts
  /// otherwise); every solve entry point dispatches to it transparently.
  [[nodiscard]] const OocCholeskyFactor& ooc_factor() const;
  /// Combined permutation: original index of postordered index k.
  [[nodiscard]] const std::vector<index_t>& permutation() const {
    return total_perm_;
  }

  /// Estimated 1-norm condition number of A (requires factorize()).
  [[nodiscard]] real_t condition_estimate() const;

 private:
  /// Workers for factorization and solves (options.threads > 1), created
  /// on first use unless shared; the solve schedule is built once per
  /// factorize() and reused by every solve.
  [[nodiscard]] ThreadPool* worker_pool() const;
  void build_solve_schedule();
  /// Digest of every option that affects the symbolic result (ordering kind
  /// and knobs, amalgamation, parallel-ND engine choice) — the PatternKey
  /// config component.
  [[nodiscard]] std::uint64_t config_hash() const;
  /// Builds value_map_: sym_->a.values[q] = lower.values[value_map_[q]].
  void build_value_map(const SparseMatrix& lower);
  /// Arms the per-call cancellation scope (deadline) and returns its token.
  [[nodiscard]] CancelToken arm_cancel_scope();
  /// x := A⁻¹ x on the postordered block, dispatching in-core vs spilled.
  void solve_postordered(MatrixView x) const;
  [[nodiscard]] std::string spill_path() const;
  void check_rhs(std::size_t b_size, index_t nrhs, const char* fn) const;
  [[nodiscard]] PivotPolicy pivot_policy() const;
  /// Options of a governed numeric run; arms its cancellation scope.
  [[nodiscard]] GovernedOptions governed_options();
  /// Drops the factor and all state derived from it.
  void reset_factor_state();
  /// Fresh cancel scope, stats into the report; a breakdown throws.
  Status finish_run(const Status& status, const FactorStats& stats);
  void inject_stored_flip();  ///< kStoredFactor injection
  /// Permute → triangular sweeps → permute back (solve_multi's core).
  [[nodiscard]] std::vector<real_t> solve_permuted(std::span<const real_t> b,
                                                   index_t nrhs) const;
  /// Post-solve verification (options.verify): componentwise residual
  /// check, at-rest factor verification, localized or full recompute,
  /// re-solve. Throws kDataCorruption only if repair cannot restore a
  /// verifying answer.
  void verify_and_repair(std::span<const real_t> b, index_t nrhs,
                         std::vector<real_t>& x) const;

  SolverOptions options_;
  mutable SolverReport report_;  ///< solve_batch() updates batch stats
  std::optional<SymbolicFactor> sym_;
  /// mutable: verify_and_repair() heals corrupted panels from const solves.
  mutable std::optional<CholeskyFactor> factor_;
  mutable FactorChecksums factor_checksums_;  ///< at-rest sums (abft runs)
  std::optional<OocCholeskyFactor> ooc_factor_;  ///< spilled alternative
  std::vector<index_t> total_perm_;  ///< postordered -> original
  /// Per-nonzero scatter map from the analyze() input's value array into
  /// sym_->a.values — a pure permutation (no arithmetic), which is what
  /// makes cache-hit analyze and refactorize bitwise-exact.
  std::vector<index_t> value_map_;
  /// The adopted cache entry (hit or freshly inserted miss); retained so
  /// build_solve_schedule() can copy the precomputed schedule.
  std::shared_ptr<const CachedAnalysis> cached_;
  SparseMatrix original_lower_;      ///< kept for residuals/refinement
  std::unique_ptr<SolveSchedule> solve_schedule_;
  mutable SolveWorkspace solve_workspace_;
  mutable std::unique_ptr<ThreadPool> worker_pool_;
  /// Governance state. The budget must outlive the reservation charged
  /// against it (declaration order ⇒ reverse destruction order).
  std::unique_ptr<ResourceBudget> budget_;
  Reservation reservation_;
  CancelSource cancel_source_;
};

/// Accumulating batch helper for serving loops: callers add() single
/// right-hand sides as they arrive, then one solve() call runs the fused
/// blocked sweeps and per-batch refinement via Solver::solve_batch().
class SolveBatch {
 public:
  explicit SolveBatch(const Solver& solver);

  /// Queues one right-hand side (length n); returns its slot index.
  /// Invalidates previous solutions.
  index_t add(std::span<const real_t> b);

  /// Solves every queued right-hand side in one fused batch.
  void solve();

  [[nodiscard]] index_t size() const { return nrhs_; }
  /// Solution of slot i; valid after solve() until the next add()/reset().
  [[nodiscard]] std::span<const real_t> solution(index_t i) const;
  void reset();

 private:
  const Solver* solver_;
  index_t n_ = 0;
  index_t nrhs_ = 0;
  bool solved_ = false;
  std::vector<real_t> b_;
  std::vector<real_t> x_;
};

/// Convenience for experiments: fill-order `lower` with nested dissection
/// and run the symbolic phase, returning the SymbolicFactor whose `post`
/// composes both permutations (i.e. analyze(nd_permuted(A))).
[[nodiscard]] SymbolicFactor analyze_nested_dissection(
    const SparseMatrix& lower, const OrderingOptions& nd = {},
    const AmalgamationOptions& amalg = {});

}  // namespace parfact
