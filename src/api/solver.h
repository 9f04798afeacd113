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
// The distributed/simulated execution paths (dist/, mpsim/, perf/) are
// deliberately separate entry points driven by the experiments — e.g.
// distributed_factor_checked for a crash-recovering distributed run; this
// facade is the "desktop" interface, and nothing under api/ includes their
// headers.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/symbolic_cache.h"
#include "graph/ordering.h"
#include "mf/abft.h"
#include "mf/factor.h"
#include "mf/governed.h"
#include "mf/multifrontal.h"
#include "mf/ooc.h"
#include "solve/solve.h"
#include "solve/solve_schedule.h"
#include "sparse/sparse_matrix.h"
#include "support/resource.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

class ThreadPool;

/// What a caller sets. Everything else is a fixed engine parameter: nested
/// dissection runs with OrderingOptions{}, the symbolic phase with
/// AmalgamationOptions{}, the solve sweeps with SolveScheduleOptions{}
/// (blocks of 32 right-hand sides), solve_refined() with at most two
/// corrections, and solve_robust() with the targets documented there.
struct SolverOptions {
  /// Fill-reducing ordering. With the pattern it is the whole key of a
  /// symbolic_cache entry.
  enum class Ordering { kNestedDissection, kMinimumDegree, kRcm, kNatural };
  Ordering ordering = Ordering::kNestedDissection;
  /// Factorization and solve threads (>= 1). Only speed depends on it: the
  /// ordering, the factor and every bit of every answer are the same at
  /// any thread count.
  int threads = 1;
  /// Cholesky for SPD input; LDLᵀ (no pivoting) for symmetric
  /// quasi-definite input such as KKT saddle-point systems.
  FactorKind factor_kind = FactorKind::kCholesky;
  /// Static pivoting: tiny/non-positive pivots are boosted to
  /// sqrt(eps)·max|A| (sign-preserving for LDLᵀ) instead of aborting the
  /// factorization. The perturbation count is surfaced in the report and
  /// the factorize() Status; accuracy is recovered by refinement or the
  /// solve_robust() escalation. Set false to restore throw-on-breakdown.
  /// A zero matrix has no boost magnitude, so it breaks down either way.
  bool static_pivoting = true;
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
  /// Post-solve end-to-end verification of solve(), solve_multi() and
  /// solve_refined() results: componentwise scaled residual
  /// max_i |b−Ax|_i / (|A||x|+|b|)_i against 1e-8. kSampled
  /// checks the first right-hand side of each call; kFull checks every
  /// column. On failure the solver verifies the stored factor against its
  /// checksums, recomputes the corrupt subtree (or, when no checksums are
  /// armed, the whole factor in place), re-solves through the same call's
  /// path (a refined solve through its sweeps and corrections), and only
  /// if verification still fails throws kDataCorruption — a silent wrong
  /// answer is never returned. A factor with boosted pivots misses the
  /// bound by design, so there a failed check repairs only what the
  /// checksums localize and then throws kNoConvergence: refine the answer
  /// or call solve_robust().
  enum class Verify { kOff, kSampled, kFull };
  Verify verify = Verify::kOff;
  /// Fault-campaign hook: one seeded single-bit flip injected into the
  /// numeric pipeline. Factorization sites (kAssembly..kUpdate) require
  /// abft; kStoredFactor corrupts the in-core factor right after
  /// factorize() so the at-rest/verify defenses are exercised.
  std::optional<SdcInjection> inject_sdc;
  /// Pattern-keyed analysis cache shared across Solver instances (and
  /// SolverService sessions). When set, analyze() first looks up the input
  /// pattern + `ordering` and adopts a cached analysis on a hit
  /// — bitwise identical to a cold analyze — instead of re-running ordering
  /// and symbolic analysis; misses populate the cache. Must outlive the
  /// Solver. nullptr (default) keeps analyze() fully cold.
  SymbolicCache* symbolic_cache = nullptr;
  /// Externally owned worker pool used (when threads > 1) instead of the
  /// solver's own. Lets many solvers — e.g. the sessions of one
  /// SolverService — share workers; each call waits for and fails on its
  /// own tasks only (a TaskGroup). Must outlive the Solver; do not call
  /// solver methods from this pool's own worker threads.
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

/// Result of the escalating solve: the cheapest path that met its target
/// residual, or the best effort with a diagnosing status.
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
  /// budget reservation. Every solve entry point and condition_estimate()
  /// keep working, streamed from disk, with the same bits. Used by
  /// SolverService to evict cold sessions; no-op Status if already spilled.
  /// When the file kept from the last unspill_factor() still holds exactly
  /// this factor (every panel digests to what was written), it is reused
  /// and nothing is written; otherwise it is rewritten in place with one
  /// positioned write.
  Status spill_factor();

  /// Loads a spilled factor back in-core with one positioned read, every
  /// panel digest-verified (a corrupted scratch file returns
  /// kDataCorruption and keeps the spilled state). The file is kept for
  /// the next spill_factor() until analyze(), a factorization that starts
  /// over, or destruction removes it. No-op Status if already in-core.
  Status unspill_factor();

  /// Scratch-file bytes spill_factor() has written over this Solver's
  /// lifetime (a reused file adds 0).
  [[nodiscard]] std::size_t spill_bytes_written() const {
    return spill_bytes_written_;
  }

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

  /// Numeric phase + first solve: factorize() followed by
  /// solve_multi(b, nrhs) on the n × nrhs column-major right-hand sides
  /// `b`, with the solutions in `x` (caller's original ordering). Returns
  /// factorize()'s Status, and leaves `x` untouched when it fails; a
  /// malformed `b` returns kInvalidInput before anything is factorized.
  /// Requires analyze().
  Status factorize_and_solve(std::span<const real_t> b, index_t nrhs,
                             std::vector<real_t>& x);

  /// Solves A x = b in the caller's original ordering; requires factorize().
  [[nodiscard]] std::vector<real_t> solve(std::span<const real_t> b) const;

  /// Blocked multiple-right-hand-side solve: `b` is n x nrhs column-major;
  /// returns the n x nrhs solution block. The sweeps stream every factor
  /// panel once per SolveScheduleOptions{}.rhs_block (32) columns, so a
  /// batch of right-hand sides costs far less than a solve() per column,
  /// and the answers depend only on that block partition. solve() is this
  /// with nrhs == 1: there is exactly one sweep implementation.
  [[nodiscard]] std::vector<real_t> solve_multi(std::span<const real_t> b,
                                                index_t nrhs) const;

  /// solve_multi() followed by iterative refinement of the whole block:
  /// at most two blocked corrections, stopping once every column's
  /// relative residual is at or below 1e-14.
  /// options.verify checks the refined answer, and a repaired factor
  /// re-runs the sweeps and corrections, so a healed answer is bitwise
  /// the clean one.
  [[nodiscard]] std::vector<real_t> solve_refined(std::span<const real_t> b,
                                                  index_t nrhs = 1) const;

  /// Escalating solve for perturbed or ill-conditioned factorizations:
  /// tries the plain direct solve, then iterative refinement, then an
  /// IC(0)-preconditioned CG fallback (warm-started from the best direct
  /// answer, or from zero when that answer is not finite), stopping at
  /// the cheapest path whose scaled residual
  /// ‖b−Ax‖∞/(‖A‖∞‖x‖∞+‖b‖∞) is at most 1e-10 (the CG fallback
  /// runs at most 500 iterations). Always returns the best x found; status
  /// is kNoConvergence if no path met that target. The candidates come
  /// from the unverified sweeps: that target, not options.verify, accepts
  /// or escalates them.
  [[nodiscard]] RobustSolveResult solve_robust(std::span<const real_t> b)
      const;

  /// Relative residual of a candidate solution in original ordering; +∞
  /// when any entry of b − Ax is not finite.
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
  /// otherwise); every solve entry point dispatches to it transparently
  /// and answers bit for bit as the resident factor would.
  [[nodiscard]] const OocCholeskyFactor& ooc_factor() const;
  /// Combined permutation: original index of postordered index k.
  [[nodiscard]] const std::vector<index_t>& permutation() const {
    return total_perm_;
  }

  /// Estimated 1-norm condition number of A (requires a factor, resident
  /// or spilled).
  [[nodiscard]] real_t condition_estimate() const;

 private:
  /// Workers for factorization and solves (options.threads > 1), created
  /// on first use unless shared.
  [[nodiscard]] ThreadPool* worker_pool() const;
  /// The analysis's solve schedule: copied from the cache `entry` (rebound
  /// to this solver's SymbolicFactor), or built when there is none. Every
  /// solve reuses it, resident or spilled.
  void install_solve_schedule(const CachedAnalysis* entry);
  /// Digest of the one option that affects the symbolic result, the
  /// ordering: the PatternKey config component.
  [[nodiscard]] std::uint64_t config_hash() const;
  /// Arms the per-call cancellation scope (deadline) and returns its token.
  [[nodiscard]] CancelToken arm_cancel_scope();
  /// x := A⁻¹ x on the postordered block: the one place that dispatches
  /// on a resident vs spilled factor. solve_fn() wraps it for refinement
  /// and condition estimation.
  void solve_postordered(MatrixView x) const;
  [[nodiscard]] SolveFn solve_fn() const;
  /// n x k right-hand sides in the caller's ordering -> postordered, and
  /// back.
  [[nodiscard]] std::vector<real_t> permute_in(std::span<const real_t> b) const;
  [[nodiscard]] std::vector<real_t> permute_out(
      std::span<const real_t> px) const;
  [[nodiscard]] std::string spill_path() const;
  void check_rhs(std::size_t b_size, index_t nrhs, const char* fn) const;
  [[nodiscard]] PivotPolicy pivot_policy() const {
    return {.boost = options_.static_pivoting};
  }
  /// Options of a governed numeric run; arms its cancellation scope.
  [[nodiscard]] GovernedOptions governed_options();
  /// Drops the factor and all state derived from it.
  void reset_factor_state();
  /// Fresh cancel scope, stats into the report; a breakdown throws.
  Status finish_run(const Status& status, const FactorStats& stats);
  void inject_stored_flip();  ///< kStoredFactor injection
  /// solve_multi() (refinement_steps == 0) and solve_refined(): checks
  /// the right-hand sides, solves, then runs options.verify.
  [[nodiscard]] std::vector<real_t> solve_verified(std::span<const real_t> b,
                                                   index_t nrhs,
                                                   int refinement_steps,
                                                   const char* fn) const;
  /// Permute → triangular sweeps → up to `refinement_steps` blocked
  /// corrections → permute back.
  [[nodiscard]] std::vector<real_t> solve_permuted(std::span<const real_t> b,
                                                   index_t nrhs,
                                                   int refinement_steps) const;
  /// Post-solve verification (options.verify) of `x`, the answer to the
  /// n x k right-hand sides `b`: componentwise residual check, at-rest
  /// factor verification, localized or full in-place recompute, then
  /// x = resolve(). Throws kDataCorruption only if repair cannot restore a
  /// verifying answer; on a factor with boosted pivots repairs only what
  /// the checksums localize and throws kNoConvergence instead.
  void verify_and_repair(
      std::span<const real_t> b, std::vector<real_t>& x,
      const std::function<std::vector<real_t>()>& resolve) const;

  SolverOptions options_;
  mutable SolverReport report_;  ///< verify_and_repair() updates SDC stats
  /// On the heap so that its address survives a move: the factor, the
  /// schedule and both OOC factors point at it.
  std::unique_ptr<SymbolicFactor> sym_;
  /// mutable: verify_and_repair() heals corrupted panels from const solves.
  mutable std::optional<CholeskyFactor> factor_;
  mutable FactorChecksums factor_checksums_;  ///< at-rest sums (abft runs)
  std::optional<OocCholeskyFactor> ooc_factor_;  ///< spilled alternative
  /// The scratch file of the last reload, kept while the factor is resident
  /// so that spilling it unchanged costs one digest pass and no I/O.
  std::optional<OocCholeskyFactor> kept_spill_;
  std::size_t spill_bytes_written_ = 0;  ///< cumulative, spill_factor()
  std::vector<index_t> total_perm_;  ///< postordered -> original
  /// Per-nonzero scatter map from the analyze() input's value array into
  /// sym_->a.values — a pure permutation (no arithmetic), which is what
  /// makes cache-hit analyze and refactorize bitwise-exact.
  std::vector<index_t> value_map_;
  SparseMatrix original_lower_;      ///< kept for residuals/refinement
  std::unique_ptr<SolveSchedule> solve_schedule_;  ///< part of the analysis
  mutable SolveWorkspace solve_workspace_;
  mutable std::unique_ptr<ThreadPool> worker_pool_;
  /// Governance state. The budget must outlive the reservation charged
  /// against it (declaration order ⇒ reverse destruction order).
  std::unique_ptr<ResourceBudget> budget_;
  Reservation reservation_;
  CancelSource cancel_source_;
};

/// Convenience for experiments: fill-order `lower` with nested dissection
/// and run the symbolic phase, returning the SymbolicFactor whose `post`
/// composes both permutations (i.e. analyze(nd_permuted(A))).
[[nodiscard]] SymbolicFactor analyze_nested_dissection(
    const SparseMatrix& lower, const OrderingOptions& nd = {},
    const AmalgamationOptions& amalg = {});

}  // namespace parfact
