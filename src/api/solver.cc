#include "api/solver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "baseline/iccg.h"
#include "graph/graph.h"
#include "mf/governed.h"
#include "mf/multifrontal.h"
#include "solve/condest.h"
#include "solve/solve.h"
#include "sparse/ops.h"
#include "support/checksum.h"
#include "support/error.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace parfact {
namespace {

[[noreturn]] void throw_invalid(const std::string& message) {
  throw StatusError(Status::failure(StatusCode::kInvalidInput, message));
}

/// Worst componentwise scaled residual max_i |b − Ax|_i / (|A||x| + |b|)_i
/// of one column (original ordering). The normwise residual can hide a
/// single corrupted entry in a large solution; the componentwise form is
/// the standard backward-error measure that cannot — a stable direct solve
/// keeps it near machine epsilon regardless of conditioning, so anything
/// above the verify tolerance means the pipeline, not the matrix.
real_t componentwise_residual(const SparseMatrix& lower,
                              std::span<const real_t> x,
                              std::span<const real_t> b) {
  const index_t n = lower.rows;
  std::vector<real_t> ax(static_cast<std::size_t>(n));
  spmv_symmetric_lower(lower, x, ax);
  std::vector<real_t> scale(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t q = lower.col_ptr[j]; q < lower.col_ptr[j + 1]; ++q) {
      const index_t i = lower.row_ind[q];
      const real_t v = std::abs(lower.values[q]);
      scale[i] += v * std::abs(x[j]);
      if (i != j) scale[j] += v * std::abs(x[i]);
    }
  }
  real_t worst = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const real_t r = std::abs(b[i] - ax[i]);
    const real_t s = scale[i] + std::abs(b[i]);
    const real_t e =
        s > 0.0 ? r / s
                : (r == 0.0 ? 0.0 : std::numeric_limits<real_t>::infinity());
    // Inf/NaN anywhere (an overflowed x makes both r and s infinite, so
    // e = inf/inf = NaN; a NaN in x makes s NaN, which fails s > 0) is
    // corruption by definition and must not be washed out by later finite
    // rows.
    if (!std::isfinite(e)) return std::numeric_limits<real_t>::infinity();
    if (e > worst) worst = e;
  }
  return worst;
}

/// solve_refined()'s corrections, and its early exit: the worst per-column
/// residual below which another correction cannot help.
constexpr int kRefinementSteps = 2;
constexpr real_t kRefinedSolveStop = 1e-14;

/// solve_robust()'s acceptance residual and its CG fallback's budget.
constexpr real_t kTargetResidual = 1e-10;
constexpr int kCgMaxIterations = 500;

/// Post-solve verification's bound on the componentwise residual. A stable
/// direct solve keeps it near machine epsilon, so 1e-8 only fires on a
/// corrupted pipeline.
constexpr real_t kVerifyTolerance = 1e-8;

}  // namespace

Solver::Solver(SolverOptions options) : options_(std::move(options)) {
  PARFACT_CHECK(options_.threads >= 1);
}

Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;

Solver& Solver::operator=(Solver&& other) noexcept {
  // Member-wise assignment would replace budget_ while reservation_ still
  // holds bytes charged against it. Tear this solver down in destruction
  // order instead, then take over other's state.
  if (this != &other) {
    std::destroy_at(this);
    std::construct_at(this, std::move(other));
  }
  return *this;
}

void Solver::cancel() { cancel_source_.request_cancel(); }

void Solver::set_memory_budget_bytes(std::size_t bytes) {
  options_.memory_budget_bytes = bytes;
}

void Solver::set_deadline_seconds(double seconds) {
  options_.deadline_seconds = seconds;
}

CancelToken Solver::arm_cancel_scope() {
  if (options_.deadline_seconds > 0.0) {
    cancel_source_.set_deadline_after(options_.deadline_seconds);
  }
  return cancel_source_.token();
}

std::string Solver::spill_path() const {
  if (!options_.spill_path.empty()) return options_.spill_path;
  static std::atomic<int> next{0};
  std::ostringstream os;
  os << "/tmp/parfact_spill_" << next.fetch_add(1) << "_"
     << static_cast<const void*>(this) << ".bin";
  return os.str();
}

void Solver::check_rhs(std::size_t b_size, index_t nrhs,
                       const char* fn) const {
  const index_t n = sym_->n;
  if (nrhs < 1) {
    std::ostringstream os;
    os << fn << ": nrhs must be >= 1, got " << nrhs;
    throw_invalid(os.str());
  }
  if (static_cast<count_t>(b_size) != static_cast<count_t>(n) * nrhs) {
    std::ostringstream os;
    os << fn << ": right-hand-side block has " << b_size
       << " entries, expected n * nrhs = " << n << " * " << nrhs << " = "
       << static_cast<count_t>(n) * nrhs;
    throw_invalid(os.str());
  }
}

ThreadPool* Solver::worker_pool() const {
  if (options_.threads <= 1) return nullptr;
  if (options_.shared_pool != nullptr) return options_.shared_pool;
  if (!worker_pool_) {
    worker_pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
  return worker_pool_.get();
}

GovernedOptions Solver::governed_options() {
  GovernedOptions gopts;
  gopts.kind = options_.factor_kind;
  gopts.pivot = pivot_policy();
  gopts.pool = worker_pool();
  if (options_.abft) {
    AbftOptions& abft = gopts.abft.emplace();
    if (options_.inject_sdc.has_value() &&
        options_.inject_sdc->site != SdcSite::kStoredFactor) {
      abft.inject = &*options_.inject_sdc;
    }
  }
  gopts.spill_path = spill_path();
  gopts.cancel = arm_cancel_scope();
  return gopts;
}

void Solver::reset_factor_state() {
  factor_.reset();
  ooc_factor_.reset();
  kept_spill_.reset();
  reservation_.reset();
  budget_.reset();
  factor_checksums_ = FactorChecksums{};
  report_.abft_checks = 0;
  report_.abft_detections = 0;
  report_.fronts_recomputed = 0;
  report_.corruption_detected = false;
  report_.verify_residual = 0.0;
}

Status Solver::finish_run(const Status& status, const FactorStats& stats) {
  // Fresh cancellation scope: a cancel()/deadline never poisons later calls.
  cancel_source_ = CancelSource();
  report_.factor_seconds = stats.seconds;
  report_.peak_update_bytes = stats.peak_update_bytes;
  report_.pivot_perturbations = stats.pivot_perturbations;
  report_.abft_checks = stats.abft_checks;
  report_.abft_detections = stats.abft_detections;
  report_.fronts_recomputed = stats.fronts_recomputed;
  report_.corruption_detected = stats.abft_detections > 0;
  // Only the governance and corruption codes degrade to a returned Status;
  // a pivot breakdown (non-SPD input, or boost could not rescue the pivot)
  // throws as it always has.
  if (status.code == StatusCode::kBreakdown) throw StatusError(status);
  return status;
}

void Solver::inject_stored_flip() {
  if (options_.inject_sdc.has_value() &&
      options_.inject_sdc->site == SdcSite::kStoredFactor &&
      factor_.has_value()) {
    inject_factor_bitflip(*sym_, *factor_, *options_.inject_sdc);
  }
}

void Solver::install_solve_schedule(const CachedAnalysis* entry) {
  // The schedule is a pure function of the structure, so a cached copy is
  // exact.
  if (entry == nullptr) {
    solve_schedule_ = std::make_unique<SolveSchedule>(*sym_);
    return;
  }
  solve_schedule_ = std::make_unique<SolveSchedule>(entry->schedule);
  solve_schedule_->sym = sym_.get();
}

std::uint64_t Solver::config_hash() const {
  return fnv1a_pod(static_cast<int>(options_.ordering));
}

void Solver::analyze(const SparseMatrix& lower) {
  WallTimer timer;
  PARFACT_CHECK(lower.rows == lower.cols);
  original_lower_ = lower;
  reset_factor_state();
  // Free the old analysis before building the new one, so that the peak
  // holds one SymbolicFactor, not two.
  solve_schedule_.reset();
  sym_.reset();

  // The serving counters are cumulative per Solver and survive the
  // per-analyze report reset below.
  const count_t cache_hits = report_.symbolic_cache_hits;
  const count_t cache_misses = report_.symbolic_cache_misses;
  const count_t refactorizes = report_.refactorizes;
  report_ = SolverReport{};
  report_.symbolic_cache_hits = cache_hits;
  report_.symbolic_cache_misses = cache_misses;
  report_.refactorizes = refactorizes;

  SymbolicCache* cache = options_.symbolic_cache;
  PatternKey key;
  std::shared_ptr<const CachedAnalysis> entry;
  if (cache != nullptr) {
    key = pattern_key(lower, config_hash());
    entry = cache->lookup(key);
    if (entry != nullptr) {
      ++report_.symbolic_cache_hits;
    } else {
      ++report_.symbolic_cache_misses;
    }
  }
  if (entry != nullptr) {
    // Hit: adopt the cached structure (copy — the entry stays immutable
    // and shared) and scatter this matrix's values into place. Pure value
    // permutation ⇒ bitwise identical to a cold analyze of `lower`.
    sym_ = std::make_unique<SymbolicFactor>(entry->sym);
    total_perm_ = entry->total_perm;
    value_map_ = entry->value_map;
    for (std::size_t q = 0; q < value_map_.size(); ++q) {
      sym_->a.values[q] = lower.values[value_map_[q]];
    }
  } else {
    // Fill-reducing permutation (new -> old).
    std::vector<index_t> fill_perm;
    switch (options_.ordering) {
      case SolverOptions::Ordering::kNestedDissection:
        fill_perm = nested_dissection(graph_from_pattern(lower));
        break;
      case SolverOptions::Ordering::kMinimumDegree:
        fill_perm = minimum_degree(graph_from_pattern(lower));
        break;
      case SolverOptions::Ordering::kRcm:
        fill_perm = rcm(graph_from_pattern(lower));
        break;
      case SolverOptions::Ordering::kNatural:
        fill_perm.resize(static_cast<std::size_t>(lower.rows));
        for (index_t i = 0; i < lower.rows; ++i) fill_perm[i] = i;
        break;
    }

    // Both permutations stay in lower storage, and each reports where its
    // entries came from; composing the two gives the value map.
    std::vector<index_t> fill_source;
    {
      const SparseMatrix permuted =
          permute_lower(lower, fill_perm, &fill_source);
      sym_ = std::make_unique<SymbolicFactor>(
          parfact::analyze(permuted, AmalgamationOptions{}, &value_map_));
    }
    for (index_t& q : value_map_) q = fill_source[q];

    // Compose: postordered index -> fill index -> original index.
    total_perm_.resize(static_cast<std::size_t>(lower.rows));
    for (index_t k = 0; k < lower.rows; ++k) {
      total_perm_[k] = fill_perm[sym_->post[k]];
    }
    PARFACT_CHECK(is_permutation(total_perm_));

    if (cache != nullptr) {
      SymbolicFactor zeroed = *sym_;
      std::fill(zeroed.a.values.begin(), zeroed.a.values.end(), 0.0);
      // insert() returns the incumbent if another thread analyzed the same
      // pattern concurrently; either entry is valid (the analysis is
      // deterministic), and keeping the winner maximizes sharing.
      entry = cache->insert(
          key, std::make_shared<CachedAnalysis>(std::move(zeroed), total_perm_,
                                                value_map_));
    }
  }
  install_solve_schedule(entry.get());

  report_.n = lower.rows;
  report_.nnz_a = lower.nnz();
  report_.nnz_factor = sym_->nnz_strict;
  report_.factor_flops = sym_->total_flops;
  report_.n_supernodes = sym_->n_supernodes;
  report_.analyze_seconds = timer.seconds();
}

Status Solver::factorize() {
  PARFACT_CHECK_MSG(sym_ != nullptr, "factorize() before analyze()");
  // Reset factor state up front so a failed run leaves no stale factor and
  // releases the previous run's reservation before re-admission.
  reset_factor_state();
  if (options_.inject_sdc.has_value() &&
      options_.inject_sdc->site != SdcSite::kStoredFactor &&
      !options_.abft) {
    return Status::failure(
        StatusCode::kInvalidInput,
        "inject_sdc with a factorization site requires options.abft — "
        "without the checksum-carrying engine the flip would be a silent "
        "wrong answer");
  }
  budget_ = std::make_unique<ResourceBudget>(options_.memory_budget_bytes);
  GovernedFactorizeResult result =
      multifrontal_factorize_governed(*sym_, *budget_, governed_options());
  report_.admission = result.admission;
  report_.peak_bytes = budget_->peak_bytes();
  report_.bytes_spilled = result.bytes_spilled;
  const Status status = finish_run(result.status, result.stats);
  if (status.failed()) return status;
  if (result.factor.has_value()) {
    factor_.emplace(std::move(*result.factor));
    factor_checksums_ = std::move(result.checksums);
    inject_stored_flip();
  } else {
    ooc_factor_.emplace(std::move(*result.ooc));
  }
  reservation_ = std::move(result.reservation);
  return status;
}

Status Solver::refactorize(std::span<const real_t> new_values) {
  PARFACT_CHECK_MSG(sym_ != nullptr, "refactorize() before analyze()");
  if (new_values.size() != original_lower_.values.size()) {
    std::ostringstream os;
    os << "refactorize: value array has " << new_values.size()
       << " entries, the analyzed matrix stores "
       << original_lower_.values.size() << " nonzeros";
    return Status::failure(StatusCode::kInvalidInput, os.str());
  }
  ++report_.refactorizes;
  std::copy(new_values.begin(), new_values.end(),
            original_lower_.values.begin());
  // Same pure value permutation the analyze paths use — the postordered
  // matrix now holds exactly what a cold analyze of the new values would.
  for (std::size_t q = 0; q < value_map_.size(); ++q) {
    sym_->a.values[q] = original_lower_.values[value_map_[q]];
  }

  // In place whenever the in-core factor was admitted under the current
  // budget, whatever the options; anything else — no factor, a spilled
  // one, a budget changed since — re-enters the admission ladder.
  const bool admitted =
      factor_.has_value() && budget_ != nullptr &&
      budget_->limit_bytes() == options_.memory_budget_bytes &&
      (reservation_.held() || !budget_->limited());
  if (!admitted) return factorize();

  factor_checksums_ = FactorChecksums{};
  report_.verify_residual = 0.0;
  FactorStats stats;
  Status status = multifrontal_refactor_governed(
      *sym_, *budget_, governed_options(), *factor_, stats, factor_checksums_);
  // The interrupted panels hold partial results; drop them so a later
  // refactorize/factorize starts from the no-factor state.
  if (status.failed()) reset_factor_state();
  status = finish_run(status, stats);
  if (status.failed()) return status;
  // The admitting run's rung and reservation still hold the factor, so the
  // governance fields are what that run reported; in-core means nothing
  // was spilled.
  report_.peak_bytes = budget_->peak_bytes();
  report_.bytes_spilled = 0;
  inject_stored_flip();
  return status;
}

Status Solver::spill_factor() {
  PARFACT_CHECK_MSG(sym_ != nullptr, "spill_factor() before analyze()");
  if (ooc_factor_.has_value()) return Status::success();
  if (!factor_.has_value()) {
    return Status::failure(StatusCode::kInvalidInput,
                           "spill_factor(): no factor to spill");
  }
  // The file kept from the last reload already holds this factor unless a
  // refactorize, a verify repair or an injection rewrote panels since:
  // compare digests, and rewrite the file in place only on a difference.
  const bool reuse =
      kept_spill_.has_value() && kept_spill_->matches(*factor_);
  if (!kept_spill_.has_value()) kept_spill_.emplace(*sym_, spill_path());
  if (!reuse) {
    kept_spill_->write_factor(*factor_);
    spill_bytes_written_ +=
        static_cast<std::size_t>(kept_spill_->bytes_on_disk());
  }
  if (factor_->is_ldlt()) {
    const std::span<const real_t> d = factor_->diag();
    std::copy(d.begin(), d.end(), kept_spill_->allocate_diag().begin());
  }
  ooc_factor_ = std::move(kept_spill_);
  kept_spill_.reset();
  factor_.reset();
  reservation_.reset();
  factor_checksums_ = FactorChecksums{};
  report_.bytes_spilled = ooc_factor_->bytes_on_disk();
  return Status::success();
}

Status Solver::unspill_factor() {
  PARFACT_CHECK_MSG(sym_ != nullptr, "unspill_factor() before analyze()");
  if (factor_.has_value()) return Status::success();
  if (!ooc_factor_.has_value()) {
    return Status::failure(StatusCode::kInvalidInput,
                           "unspill_factor(): no spilled factor to load");
  }
  try {
    CholeskyFactor factor(*sym_);
    ooc_factor_->read_factor(factor);
    if (ooc_factor_->is_ldlt()) {
      const std::span<const real_t> d = ooc_factor_->diag();
      std::copy(d.begin(), d.end(), factor.allocate_diag().begin());
    }
    factor_.emplace(std::move(factor));
  } catch (const StatusError& e) {
    // Checksum-verified read failed: keep the spilled state (still usable
    // for streamed solves — the corruption may be panel-local) and let the
    // caller decide (SolverService falls back to refactorize).
    return e.status();
  }
  // Keep the file: evicting this factor again unchanged then writes nothing.
  kept_spill_ = std::move(ooc_factor_);
  ooc_factor_.reset();
  return Status::success();
}

std::size_t Solver::factor_bytes() const {
  if (factor_.has_value()) {
    std::size_t bytes =
        static_cast<std::size_t>(factor_->stored_entries()) * sizeof(real_t);
    if (factor_->is_ldlt()) {
      bytes += static_cast<std::size_t>(sym_->n) * sizeof(real_t);
    }
    return bytes;
  }
  if (ooc_factor_.has_value()) {
    return static_cast<std::size_t>(ooc_factor_->bytes_on_disk());
  }
  return 0;
}

Status Solver::factorize_and_solve(std::span<const real_t> b, index_t nrhs,
                                   std::vector<real_t>& x) {
  PARFACT_CHECK_MSG(sym_ != nullptr, "factorize_and_solve() before analyze()");
  try {
    check_rhs(b.size(), nrhs, "factorize_and_solve");
  } catch (const StatusError& e) {
    return e.status();  // Status-returning entry point: no throw on bad input
  }
  const Status status = factorize();
  if (status.failed()) return status;
  x = solve_multi(b, nrhs);
  return status;
}

void Solver::solve_postordered(MatrixView x) const {
  if (factor_.has_value()) {
    solve_in_place(*factor_, x, *solve_schedule_, solve_workspace_,
                   worker_pool());
  } else {
    solve_in_place(*ooc_factor_, x, *solve_schedule_, solve_workspace_);
  }
}

SolveFn Solver::solve_fn() const {
  return [this](MatrixView x) { solve_postordered(x); };
}

std::vector<real_t> Solver::permute_in(std::span<const real_t> b) const {
  const std::size_t n = total_perm_.size();
  std::vector<real_t> pb(b.size());
  for (std::size_t off = 0; off < b.size(); off += n) {
    for (std::size_t k = 0; k < n; ++k) pb[off + k] = b[off + total_perm_[k]];
  }
  return pb;
}

std::vector<real_t> Solver::permute_out(std::span<const real_t> px) const {
  const std::size_t n = total_perm_.size();
  std::vector<real_t> x(px.size());
  for (std::size_t off = 0; off < px.size(); off += n) {
    for (std::size_t k = 0; k < n; ++k) x[off + total_perm_[k]] = px[off + k];
  }
  return x;
}

std::vector<real_t> Solver::solve(std::span<const real_t> b) const {
  // One sweep implementation: the 1-RHS facade is the blocked path.
  return solve_multi(b, 1);
}

std::vector<real_t> Solver::solve_multi(std::span<const real_t> b,
                                        index_t nrhs) const {
  return solve_verified(b, nrhs, 0, "solve_multi");
}

std::vector<real_t> Solver::solve_refined(std::span<const real_t> b,
                                          index_t nrhs) const {
  return solve_verified(b, nrhs, kRefinementSteps, "solve_refined");
}

std::vector<real_t> Solver::solve_verified(std::span<const real_t> b,
                                           index_t nrhs, int refinement_steps,
                                           const char* fn) const {
  PARFACT_CHECK_MSG(has_factor(), fn << "() before factorize()");
  check_rhs(b.size(), nrhs, fn);
  // A repaired factor answers through the same sweeps and corrections, so
  // a healed answer is bitwise the clean one.
  const auto sweep = [&] { return solve_permuted(b, nrhs, refinement_steps); };
  std::vector<real_t> x = sweep();
  if (options_.verify != SolverOptions::Verify::kOff) {
    verify_and_repair(b, x, sweep);
  }
  return x;
}

std::vector<real_t> Solver::solve_permuted(std::span<const real_t> b,
                                           index_t nrhs,
                                           int refinement_steps) const {
  const index_t n = sym_->n;
  std::vector<real_t> px = permute_in(b);
  const MatrixView xv{px.data(), n, nrhs, n};
  if (refinement_steps <= 0) {
    solve_postordered(xv);
    return permute_out(px);
  }
  // Refine in the postordered space, where the factor lives; px becomes x
  // in place, so keep the permuted right-hand sides.
  const std::vector<real_t> pb = px;
  solve_postordered(xv);
  (void)refine(sym_->a, ConstMatrixView{pb.data(), n, nrhs, n}, xv, solve_fn(),
               refinement_steps, kRefinedSolveStop);
  return permute_out(px);
}

void Solver::verify_and_repair(
    std::span<const real_t> b, std::vector<real_t>& x,
    const std::function<std::vector<real_t>()>& resolve) const {
  const index_t n = sym_->n;
  const auto nrhs =
      static_cast<index_t>(b.size() / static_cast<std::size_t>(n));
  const index_t check_cols =
      options_.verify == SolverOptions::Verify::kFull ? nrhs : 1;
  const auto measure = [&](const std::vector<real_t>& xs) {
    real_t worst = 0.0;
    for (index_t c = 0; c < check_cols; ++c) {
      const std::size_t off = static_cast<std::size_t>(c) * n;
      worst = std::max(
          worst, componentwise_residual(
                     original_lower_,
                     {xs.data() + off, static_cast<std::size_t>(n)},
                     {b.data() + off, static_cast<std::size_t>(n)}));
    }
    return worst;
  };
  real_t res = measure(x);
  report_.verify_residual = res;
  if (res <= kVerifyTolerance) return;

  // Localize: re-runs the subtree of every supernode the at-rest checksums
  // (armed by an ABFT factorize) flag; returns the fronts recomputed, 0
  // when none are armed or none flags.
  const PivotPolicy pivot = pivot_policy();
  const auto heal_flagged = [&]() -> count_t {
    if (!factor_.has_value() || factor_checksums_.empty()) return 0;
    count_t healed = 0;
    index_t bad = verify_factor(*sym_, *factor_, factor_checksums_);
    for (index_t guard = 0; bad != kNone && guard++ <= sym_->n_supernodes;) {
      healed += recompute_subtree(*sym_, bad, options_.factor_kind, pivot,
                                  *factor_, &factor_checksums_);
      bad = verify_factor(*sym_, *factor_, factor_checksums_);
    }
    report_.fronts_recomputed += healed;
    return healed;
  };
  const auto resolve_and_measure = [&] {
    x = resolve();
    res = measure(x);
    report_.verify_residual = res;
    return res <= kVerifyTolerance;
  };

  // A factor with boosted pivots misses the tolerance by design (solve_refined
  // or solve_robust recovers the accuracy), so its residual cannot tell
  // corruption from the boost: repair only what the checksums localize and
  // never recompute the whole factor.
  if (report_.pivot_perturbations > 0) {
    if (heal_flagged() > 0) {
      report_.corruption_detected = true;
      if (resolve_and_measure()) return;
    }
    std::ostringstream os;
    os << "post-solve verification failed: componentwise residual " << res
       << " exceeds tolerance " << kVerifyTolerance << " on a factor with "
       << report_.pivot_perturbations
       << " boosted pivot(s); refine the answer or call solve_robust()";
    Status status = Status::failure(StatusCode::kNoConvergence, os.str());
    status.perturbations = report_.pivot_perturbations;
    throw StatusError(std::move(status));
  }

  // Detect → localize → recompute. With at-rest checksums armed the
  // corrupt supernode is found and only its subtree is re-run; otherwise
  // (or when the checksums bless the factor because the corruption
  // predates them) the whole factor is recomputed in place from the kept
  // matrix, inside the allocation the factorization was admitted with.
  // Either way the repaired factor is bitwise identical to a clean run,
  // and a result is only returned once it verifies.
  report_.corruption_detected = true;
  for (int attempt = 0; attempt < 2 && factor_.has_value(); ++attempt) {
    if (heal_flagged() == 0) {
      // Checksums that consider the factor intact were computed over
      // already-corrupt data: drop them and recompute everything.
      factor_checksums_ = FactorChecksums{};
      multifrontal_refactor(*sym_, *factor_, nullptr, options_.factor_kind,
                            pivot);
      report_.fronts_recomputed += sym_->n_supernodes;
    }
    if (resolve_and_measure()) return;
  }
  std::ostringstream os;
  os << "post-solve verification failed: componentwise residual " << res
     << " exceeds tolerance " << kVerifyTolerance
     << " and factor repair did not restore a verifying solution";
  throw StatusError(
      Status::failure(StatusCode::kDataCorruption, os.str()));
}

real_t Solver::residual(std::span<const real_t> x,
                        std::span<const real_t> b) const {
  return relative_residual(original_lower_, x, b);
}

const char* solve_path_name(SolvePath path) {
  switch (path) {
    case SolvePath::kNone: return "none";
    case SolvePath::kDirect: return "direct";
    case SolvePath::kRefined: return "refined";
    case SolvePath::kIterativeFallback: return "iterative-fallback";
  }
  return "unknown";
}

RobustSolveResult Solver::solve_robust(std::span<const real_t> b) const {
  PARFACT_CHECK_MSG(has_factor(), "solve_robust() before factorize()");
  const Status factor_status =
      Status::success(report_.pivot_perturbations);
  RobustSolveResult result;

  // Cheapest first: plain direct solve. The candidates come from the
  // unverified sweeps: this call's own target accepts or escalates them.
  check_rhs(b.size(), 1, "solve_robust");
  result.x = solve_permuted(b, 1, 0);
  result.path = SolvePath::kDirect;
  result.residual = residual(result.x, b);
  if (result.residual <= kTargetResidual) {
    result.status = factor_status;
    return result;
  }

  // Iterative refinement against the original matrix.
  {
    std::vector<real_t> refined = solve_permuted(b, 1, kRefinementSteps);
    const real_t res = residual(refined, b);
    if (res < result.residual) {
      result.x = std::move(refined);
      result.residual = res;
      result.path = SolvePath::kRefined;
    }
    if (result.residual <= kTargetResidual) {
      result.status = factor_status;
      return result;
    }
  }

  // Last resort: IC(0)-preconditioned CG on the original matrix,
  // warm-started from the best direct answer — or from zero when that
  // answer is not finite, which no CG iteration could recover from. IC(0)
  // runs with pivot boosting so a perturbed/indefinite-leaning matrix
  // still yields a usable preconditioner; if it breaks down anyway, fall
  // back to unpreconditioned CG.
  {
    std::vector<real_t> x_cg = std::isfinite(result.residual)
                                   ? result.x
                                   : std::vector<real_t>(b.size(), 0.0);
    std::optional<SparseMatrix> ic0;
    try {
      ic0.emplace(incomplete_cholesky0(original_lower_, {.boost = true}));
    } catch (const Error&) {
      ic0.reset();
    }
    try {
      const CgResult cg = conjugate_gradient(
          original_lower_, b, x_cg, ic0 ? &*ic0 : nullptr, kCgMaxIterations,
          kTargetResidual);
      result.iterations = cg.iterations;
      const real_t res = residual(x_cg, b);
      if (res < result.residual) {
        result.x = std::move(x_cg);
        result.residual = res;
        result.path = SolvePath::kIterativeFallback;
      }
    } catch (const Error&) {
      // CG hit an indefinite direction: keep the best answer so far.
    }
  }

  if (result.residual <= kTargetResidual) {
    result.status = factor_status;
  } else {
    result.status = Status::failure(
        StatusCode::kNoConvergence,
        "solve_robust: no escalation path reached the target residual");
    result.status.perturbations = factor_status.perturbations;
  }
  return result;
}

real_t Solver::condition_estimate() const {
  PARFACT_CHECK_MSG(has_factor(), "condition_estimate() before factorize()");
  return estimate_condition_1(sym_->a, solve_fn());
}

const SymbolicFactor& Solver::symbolic() const {
  PARFACT_CHECK(sym_ != nullptr);
  return *sym_;
}

const CholeskyFactor& Solver::factor() const {
  PARFACT_CHECK(factor_.has_value());
  return *factor_;
}

const OocCholeskyFactor& Solver::ooc_factor() const {
  PARFACT_CHECK_MSG(ooc_factor_.has_value(),
                    "ooc_factor(): last factorization did not spill");
  return *ooc_factor_;
}

SymbolicFactor analyze_nested_dissection(const SparseMatrix& lower,
                                         const OrderingOptions& nd,
                                         const AmalgamationOptions& amalg) {
  const std::vector<index_t> perm =
      nested_dissection(graph_from_pattern(lower), nd);
  return analyze(permute_lower(lower, perm), amalg);
}

}  // namespace parfact
