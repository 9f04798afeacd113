#include "api/solver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "baseline/iccg.h"
#include "dist/dist_factor.h"
#include "dist/mapping.h"
#include "graph/graph.h"
#include "mf/governed.h"
#include "mf/multifrontal.h"
#include "solve/condest.h"
#include "solve/fused.h"
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
                : (r > 0.0 ? std::numeric_limits<real_t>::infinity() : 0.0);
    // Inf/NaN anywhere (an overflowed x makes both r and s infinite, so
    // e = inf/inf = NaN) is corruption by definition and must not be
    // washed out by later finite rows.
    if (!std::isfinite(e)) return std::numeric_limits<real_t>::infinity();
    if (e > worst) worst = e;
  }
  return worst;
}

/// Batched refinement against a spilled factor, mirroring refine_block():
/// `passes` correction sweeps (one SpMV per column per pass, one streamed
/// OOC solve per pass), then the worst per-column relative residual.
real_t ooc_refine_block(const SparseMatrix& lower_a,
                        const OocCholeskyFactor& factor, ConstMatrixView b,
                        MatrixView x, int passes) {
  const index_t n = x.rows;
  const index_t nrhs = x.cols;
  std::vector<real_t> r(static_cast<std::size_t>(n) * nrhs);
  std::vector<real_t> ax(static_cast<std::size_t>(n));
  for (int pass = 0; pass < passes; ++pass) {
    for (index_t c = 0; c < nrhs; ++c) {
      const std::span<const real_t> xc{&x.at(0, c),
                                       static_cast<std::size_t>(n)};
      spmv_symmetric_lower(lower_a, xc, ax);
      real_t* rc = r.data() + static_cast<std::size_t>(c) * n;
      for (index_t i = 0; i < n; ++i) rc[i] = b.at(i, c) - ax[i];
    }
    ooc_solve_in_place(factor, MatrixView{r.data(), n, nrhs, n});
    for (index_t c = 0; c < nrhs; ++c) {
      const real_t* rc = r.data() + static_cast<std::size_t>(c) * n;
      for (index_t i = 0; i < n; ++i) x.at(i, c) += rc[i];
    }
  }
  real_t worst = 0.0;
  for (index_t c = 0; c < nrhs; ++c) {
    worst = std::max(
        worst,
        relative_residual(
            lower_a, {&x.at(0, c), static_cast<std::size_t>(n)},
            {&b.at(0, c), static_cast<std::size_t>(n)}));
  }
  return worst;
}

}  // namespace

Solver::Solver(SolverOptions options) : options_(std::move(options)) {
  PARFACT_CHECK(options_.threads >= 1);
  PARFACT_CHECK(options_.solve_rhs_block >= 1);
}

Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

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

PivotPolicy Solver::pivot_policy() const {
  PivotPolicy pivot;
  pivot.boost = options_.static_pivoting;
  pivot.threshold = options_.pivot_threshold;
  return pivot;
}

GovernedOptions Solver::governed_options() {
  GovernedOptions gopts;
  gopts.kind = options_.factor_kind;
  gopts.pivot = pivot_policy();
  gopts.pool = worker_pool();
  if (options_.abft) {
    AbftOptions& abft = gopts.abft.emplace();
    abft.tolerance = options_.abft_tolerance;
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
  solve_schedule_.reset();
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

void Solver::build_solve_schedule() {
  // An adopted cache entry carries the precomputed schedule; copy it and
  // repoint it at this solver's own SymbolicFactor copy. The schedule is a
  // pure function of the structure and rhs_block, so the copy is exact —
  // but a solver configured with a different block width rebuilds.
  if (cached_ != nullptr &&
      cached_->schedule.rhs_block == options_.solve_rhs_block) {
    solve_schedule_ = std::make_unique<SolveSchedule>(cached_->schedule);
    solve_schedule_->sym = &*sym_;
    return;
  }
  SolveScheduleOptions opts;
  opts.rhs_block = options_.solve_rhs_block;
  solve_schedule_ = std::make_unique<SolveSchedule>(*sym_, opts);
}

std::uint64_t Solver::config_hash() const {
  std::uint64_t h = fnv1a_pod(static_cast<int>(options_.ordering));
  h = fnv1a_pod(options_.nd.nd_leaf_size, h);
  h = fnv1a_pod(options_.nd.leaf_minimum_degree, h);
  h = fnv1a_pod(options_.nd.partition.balance_tol, h);
  h = fnv1a_pod(options_.nd.partition.coarse_target, h);
  h = fnv1a_pod(options_.nd.partition.fm_passes, h);
  h = fnv1a_pod(options_.nd.partition.attempts, h);
  h = fnv1a_pod(options_.nd.seed, h);
  h = fnv1a_pod(options_.amalgamation.enable, h);
  h = fnv1a_pod(options_.amalgamation.relax_small, h);
  h = fnv1a_pod(options_.amalgamation.relax_ratio, h);
  // The parallel ND engine produces a different (equal-quality) ordering
  // than the sequential one, deterministically for a fixed seed regardless
  // of pool size — so the engine choice is structure-affecting, the thread
  // count is not.
  const bool parallel_nd =
      options_.ordering == SolverOptions::Ordering::kNestedDissection &&
      options_.threads > 1;
  h = fnv1a_pod(parallel_nd, h);
  return h;
}

void Solver::build_value_map(const SparseMatrix& lower) {
  const SparseMatrix& a = sym_->a;
  value_map_.resize(a.values.size());
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
      const index_t oi = total_perm_[a.row_ind[q]];
      const index_t oj = total_perm_[j];
      // The input stores the lower triangle: column min(oi,oj), row
      // max(oi,oj), row indices sorted within the column.
      const index_t c = std::min(oi, oj);
      const index_t r = std::max(oi, oj);
      const auto begin = lower.row_ind.begin() + lower.col_ptr[c];
      const auto end = lower.row_ind.begin() + lower.col_ptr[c + 1];
      const auto it = std::lower_bound(begin, end, r);
      PARFACT_CHECK_MSG(it != end && *it == r,
                        "analyze(): permuted entry missing from input");
      value_map_[static_cast<std::size_t>(q)] =
          static_cast<index_t>(it - lower.row_ind.begin());
    }
  }
}

void Solver::analyze(const SparseMatrix& lower) {
  WallTimer timer;
  PARFACT_CHECK(lower.rows == lower.cols);
  original_lower_ = lower;
  factor_.reset();
  ooc_factor_.reset();
  solve_schedule_.reset();
  reservation_.reset();
  cached_.reset();

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
  if (cache != nullptr) {
    key = pattern_key(lower, config_hash());
    if (std::shared_ptr<const CachedAnalysis> entry = cache->lookup(key)) {
      // Hit: adopt the cached structure (copy — the entry stays immutable
      // and shared) and scatter this matrix's values into place. Pure value
      // permutation ⇒ bitwise identical to a cold analyze of `lower`.
      sym_.emplace(entry->sym);
      total_perm_ = entry->total_perm;
      value_map_ = entry->value_map;
      for (std::size_t q = 0; q < value_map_.size(); ++q) {
        sym_->a.values[q] = lower.values[value_map_[q]];
      }
      cached_ = std::move(entry);
      ++report_.symbolic_cache_hits;
      report_.n = lower.rows;
      report_.nnz_a = lower.nnz();
      report_.nnz_factor = sym_->nnz_strict;
      report_.factor_flops = sym_->total_flops;
      report_.n_supernodes = sym_->n_supernodes;
      report_.analyze_seconds = timer.seconds();
      return;
    }
    ++report_.symbolic_cache_misses;
  }

  // Fill-reducing permutation (new -> old).
  std::vector<index_t> fill_perm;
  switch (options_.ordering) {
    case SolverOptions::Ordering::kNestedDissection:
      if (options_.threads > 1) {
        if (options_.shared_pool != nullptr) {
          fill_perm = nested_dissection_parallel(
              graph_from_pattern(lower), options_.nd, *options_.shared_pool);
        } else {
          ThreadPool pool(options_.threads);
          fill_perm = nested_dissection_parallel(graph_from_pattern(lower),
                                                 options_.nd, pool);
        }
      } else {
        fill_perm =
            nested_dissection(graph_from_pattern(lower), options_.nd);
      }
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

  const SparseMatrix permuted =
      lower_triangle(permute_symmetric(symmetrize_full(lower), fill_perm));
  sym_.emplace(parfact::analyze(permuted, options_.amalgamation));

  // Compose: postordered index -> fill index -> original index.
  total_perm_.resize(static_cast<std::size_t>(lower.rows));
  for (index_t k = 0; k < lower.rows; ++k) {
    total_perm_[k] = fill_perm[sym_->post[k]];
  }
  PARFACT_CHECK(is_permutation(total_perm_));
  build_value_map(lower);

  const double seconds = timer.seconds();
  if (cache != nullptr) {
    SymbolicFactor zeroed = *sym_;
    std::fill(zeroed.a.values.begin(), zeroed.a.values.end(), 0.0);
    SolveScheduleOptions sopts;
    sopts.rhs_block = options_.solve_rhs_block;
    // insert() returns the incumbent if another thread analyzed the same
    // pattern concurrently; either entry is valid (the analysis is
    // deterministic), and keeping the winner maximizes sharing.
    cached_ = cache->insert(
        key, std::make_shared<CachedAnalysis>(std::move(zeroed), total_perm_,
                                              value_map_, sopts, seconds));
  }

  report_.n = lower.rows;
  report_.nnz_a = lower.nnz();
  report_.nnz_factor = sym_->nnz_strict;
  report_.factor_flops = sym_->total_flops;
  report_.n_supernodes = sym_->n_supernodes;
  report_.analyze_seconds = seconds;
}

Status Solver::factorize() {
  PARFACT_CHECK_MSG(sym_.has_value(), "factorize() before analyze()");
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
    build_solve_schedule();  // streamed OOC sweeps don't use the schedule
    inject_stored_flip();
  } else {
    ooc_factor_.emplace(std::move(*result.ooc));
  }
  reservation_ = std::move(result.reservation);
  return status;
}

Status Solver::refactorize(std::span<const real_t> new_values) {
  PARFACT_CHECK_MSG(sym_.has_value(), "refactorize() before analyze()");
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
  if (solve_schedule_ == nullptr) build_solve_schedule();
  inject_stored_flip();
  return status;
}

Status Solver::spill_factor() {
  PARFACT_CHECK_MSG(sym_.has_value(), "spill_factor() before analyze()");
  if (ooc_factor_.has_value()) return Status::success();
  if (!factor_.has_value()) {
    return Status::failure(StatusCode::kInvalidInput,
                           "spill_factor(): no factor to spill");
  }
  OocCholeskyFactor ooc(*sym_, spill_path());
  for (index_t s = 0; s < sym_->n_supernodes; ++s) {
    ooc.write_panel(s, factor_->panel(s));
  }
  if (factor_->is_ldlt()) {
    const std::span<const real_t> d = factor_->diag();
    std::copy(d.begin(), d.end(), ooc.allocate_diag().begin());
  }
  ooc_factor_.emplace(std::move(ooc));
  factor_.reset();
  solve_schedule_.reset();
  reservation_.reset();
  factor_checksums_ = FactorChecksums{};
  report_.bytes_spilled = ooc_factor_->bytes_on_disk();
  return Status::success();
}

Status Solver::unspill_factor() {
  PARFACT_CHECK_MSG(sym_.has_value(), "unspill_factor() before analyze()");
  if (factor_.has_value()) return Status::success();
  if (!ooc_factor_.has_value()) {
    return Status::failure(StatusCode::kInvalidInput,
                           "unspill_factor(): no spilled factor to load");
  }
  try {
    CholeskyFactor factor(*sym_);
    for (index_t s = 0; s < sym_->n_supernodes; ++s) {
      ooc_factor_->read_panel(s, factor.panel(s));
    }
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
  ooc_factor_.reset();
  build_solve_schedule();
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
  PARFACT_CHECK_MSG(sym_.has_value(), "factorize_and_solve() before analyze()");
  const index_t n = sym_->n;
  try {
    check_rhs(b.size(), nrhs, "factorize_and_solve");
  } catch (const StatusError& e) {
    return e.status();  // Status-returning entry point: no throw on bad input
  }
  // The fused graph is the task-DAG engine plus the first forward sweep:
  // fuse only when the engine rule picks the task DAG and no injection
  // needs the serial driver's hooks or a flip between factor and solve.
  if (options_.inject_sdc.has_value() ||
      !runs_task_dag(worker_pool(), options_.memory_budget_bytes > 0,
                     options_.abft)) {
    const Status status = factorize();
    if (status.failed()) return status;
    x = solve_multi(b, nrhs);
    return status;
  }

  // factorize()'s reset and the ladder's admission. The rule implies an
  // unlimited budget, so the in-core rung is always admitted (and meters).
  reset_factor_state();
  budget_ = std::make_unique<ResourceBudget>();
  const GovernedOptions gopts = governed_options();
  AdmissionDecision admitted = admit_factorization(*sym_, *budget_, gopts);
  PARFACT_DCHECK(admitted.reservation.held());
  reservation_ = std::move(admitted.reservation);
  report_.admission = admitted.admission;
  report_.peak_bytes = budget_->peak_bytes();
  report_.bytes_spilled = 0;
  build_solve_schedule();

  // Permute into the postordered space, run the fused graph (factor tasks +
  // first-block forward-solve tasks), permute the solutions back.
  std::vector<real_t> pb(b.size());
  for (index_t c = 0; c < nrhs; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * n;
    for (index_t kk = 0; kk < n; ++kk) pb[off + kk] = b[off + total_perm_[kk]];
  }
  FactorStats stats;
  Status status;
  try {
    factor_.emplace(multifrontal_factor_and_solve(
        *sym_, MatrixView{pb.data(), n, nrhs, n}, *solve_schedule_,
        solve_workspace_, *gopts.pool, &stats, gopts.kind, kCoopFrontFlops,
        gopts.pivot, gopts.cancel));
    status = Status::success(stats.pivot_perturbations);
  } catch (const StatusError& e) {
    reset_factor_state();
    status = e.status();
  }
  status = finish_run(status, stats);
  if (status.failed()) return status;
  x.resize(b.size());
  for (index_t c = 0; c < nrhs; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * n;
    for (index_t kk = 0; kk < n; ++kk) x[off + total_perm_[kk]] = pb[off + kk];
  }
  if (options_.verify != SolverOptions::Verify::kOff) {
    verify_and_repair(b, nrhs, x);
  }
  return status;
}

Status Solver::factorize_distributed(int n_ranks,
                                     const mpsim::MachineModel& model,
                                     const mpsim::FaultPlan& faults) {
  PARFACT_CHECK_MSG(sym_.has_value(),
                    "factorize_distributed() before analyze()");
  PARFACT_CHECK(n_ranks >= 1);
  WallTimer timer;
  // The distributed factor is not admitted by the ladder and carries no
  // at-rest checksums: drop the previous factor state, so a later
  // refactorize re-enters through factorize() and verify_and_repair falls
  // back to the full recompute.
  reset_factor_state();
  const PivotPolicy pivot = pivot_policy();
  const FrontMap map =
      build_front_map(*sym_, n_ranks, MappingStrategy::kSubtree2d);
  // A Solver deadline doubles as the simulator's wall-clock watchdog: a
  // livelocked run comes back as kCommTimeout instead of hanging the host.
  mpsim::FaultPlan governed_faults = faults;
  if (options_.deadline_seconds > 0.0 &&
      governed_faults.run_timeout_host_seconds <= 0.0) {
    governed_faults.run_timeout_host_seconds = options_.deadline_seconds;
  }
  DistFactorResult result = distributed_factor_checked(
      *sym_, map, model, options_.factor_kind, pivot, governed_faults,
      options_.resilience);
  report_.rank_failures_recovered = result.run.ranks_recovered;
  report_.recovery_virtual_seconds = result.run.recovery_overhead_seconds;
  report_.comm_idle_wait_seconds = result.run.idle_wait_seconds;
  report_.comm_overlap_efficiency = result.run.overlap_efficiency;
  report_.max_in_flight_messages = result.run.max_in_flight_messages;
  report_.comm_wait_any_calls = 0;
  for (const count_t c : result.run.wait_any_calls) {
    report_.comm_wait_any_calls += c;
  }
  report_.comm_messages_out_of_order =
      result.run.messages_completed_out_of_order;
  if (result.status.failed()) return result.status;
  factor_.emplace(std::move(result.factor));
  build_solve_schedule();
  report_.factor_seconds = timer.seconds();
  report_.pivot_perturbations = result.status.perturbations;
  return result.status;
}

void Solver::solve_postordered(MatrixView x) const {
  if (factor_.has_value()) {
    PARFACT_CHECK(solve_schedule_ != nullptr);
    solve_in_place(*factor_, x, *solve_schedule_, solve_workspace_,
                   worker_pool());
  } else {
    ooc_solve_in_place(*ooc_factor_, x);
  }
}

std::vector<real_t> Solver::solve(std::span<const real_t> b) const {
  // One sweep implementation: the 1-RHS facade is the blocked path.
  return solve_multi(b, 1);
}

std::vector<real_t> Solver::solve_multi(std::span<const real_t> b,
                                        index_t nrhs) const {
  PARFACT_CHECK_MSG(has_factor(), "solve() before factorize()");
  check_rhs(b.size(), nrhs, "solve_multi");
  std::vector<real_t> x = solve_permuted(b, nrhs);
  if (options_.verify != SolverOptions::Verify::kOff) {
    verify_and_repair(b, nrhs, x);
  }
  return x;
}

std::vector<real_t> Solver::solve_permuted(std::span<const real_t> b,
                                           index_t nrhs) const {
  const index_t n = sym_->n;
  std::vector<real_t> pb(b.size());
  for (index_t c = 0; c < nrhs; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * n;
    for (index_t kk = 0; kk < n; ++kk) pb[off + kk] = b[off + total_perm_[kk]];
  }
  solve_postordered(MatrixView{pb.data(), n, nrhs, n});
  std::vector<real_t> x(b.size());
  for (index_t c = 0; c < nrhs; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * n;
    for (index_t kk = 0; kk < n; ++kk) x[off + total_perm_[kk]] = pb[off + kk];
  }
  return x;
}

void Solver::verify_and_repair(std::span<const real_t> b, index_t nrhs,
                               std::vector<real_t>& x) const {
  const index_t n = sym_->n;
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
  if (res <= options_.verify_tolerance) return;
  report_.corruption_detected = true;

  // Detect → localize → recompute. With at-rest checksums armed (ABFT
  // factorize) the corrupt supernode is found and only its subtree is
  // re-run; otherwise (or when the checksums bless the factor because the
  // corruption predates them — e.g. a flip during a distributed run) the
  // whole factor is recomputed from the kept matrix. Either way the
  // repaired factor is bitwise identical to a clean run, and a result is
  // only returned once it verifies.
  const PivotPolicy pivot = pivot_policy();
  for (int attempt = 0; attempt < 2 && factor_.has_value(); ++attempt) {
    bool localized = false;
    if (!factor_checksums_.empty()) {
      index_t bad =
          verify_factor(*sym_, *factor_, factor_checksums_,
                        options_.abft_tolerance);
      index_t guard = 0;
      count_t healed = 0;
      while (bad != kNone && guard++ <= sym_->n_supernodes) {
        healed += recompute_subtree(*sym_, bad, options_.factor_kind, pivot,
                                    *factor_, &factor_checksums_);
        bad = verify_factor(*sym_, *factor_, factor_checksums_,
                            options_.abft_tolerance);
      }
      if (healed > 0) {
        report_.fronts_recomputed += healed;
        localized = true;
      } else {
        // The checksums consider the factor intact: they were computed
        // over already-corrupt data. Drop them and recompute everything.
        factor_checksums_ = FactorChecksums{};
      }
    }
    if (!localized) {
      factor_.emplace(
          multifrontal_factor(*sym_, nullptr, options_.factor_kind, pivot));
      report_.fronts_recomputed += sym_->n_supernodes;
    }
    x = solve_permuted(b, nrhs);
    res = measure(x);
    report_.verify_residual = res;
    if (res <= options_.verify_tolerance) return;
  }
  std::ostringstream os;
  os << "post-solve verification failed: componentwise residual " << res
     << " exceeds tolerance " << options_.verify_tolerance
     << " and factor repair did not restore a verifying solution";
  throw StatusError(
      Status::failure(StatusCode::kDataCorruption, os.str()));
}

std::vector<real_t> Solver::solve_batch(std::span<const real_t> b,
                                        index_t nrhs) const {
  PARFACT_CHECK_MSG(has_factor(), "solve_batch() before factorize()");
  const index_t n = sym_->n;
  check_rhs(b.size(), nrhs, "solve_batch");
  WallTimer timer;
  std::vector<real_t> pb(b.size());
  for (index_t c = 0; c < nrhs; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * n;
    for (index_t kk = 0; kk < n; ++kk) pb[off + kk] = b[off + total_perm_[kk]];
  }
  MatrixView xv{pb.data(), n, nrhs, n};
  // pb becomes x in place; keep the permuted right-hand sides for the
  // batched refinement pass.
  const std::vector<real_t> prhs =
      options_.batch_refinement_passes > 0 ? pb : std::vector<real_t>{};
  solve_postordered(xv);
  real_t residual = 0.0;
  if (options_.batch_refinement_passes > 0) {
    // Refine the whole batch at once: one SpMV per column per pass plus
    // one blocked correction solve per pass.
    residual =
        factor_.has_value()
            ? refine_block(sym_->a, *factor_,
                           ConstMatrixView{prhs.data(), n, nrhs, n}, xv,
                           *solve_schedule_, solve_workspace_, worker_pool(),
                           options_.batch_refinement_passes)
            : ooc_refine_block(sym_->a, *ooc_factor_,
                               ConstMatrixView{prhs.data(), n, nrhs, n}, xv,
                               options_.batch_refinement_passes);
  }
  std::vector<real_t> x(b.size());
  for (index_t c = 0; c < nrhs; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * n;
    for (index_t kk = 0; kk < n; ++kk) x[off + total_perm_[kk]] = pb[off + kk];
  }
  const double seconds = timer.seconds();
  const index_t wb = options_.solve_rhs_block;
  // OOC sweeps stream the whole factor once per sweep (no RHS blocking,
  // no workspace arena), so bytes/solve reduces to panel traffic.
  const double n_blocks = factor_.has_value()
                              ? static_cast<double>((nrhs + wb - 1) / wb)
                              : 1.0;
  const double sweeps = n_blocks * (1.0 + options_.batch_refinement_passes);
  const double stored =
      factor_.has_value() ? static_cast<double>(factor_->stored_entries())
                          : static_cast<double>(ooc_factor_->bytes_on_disk()) /
                                sizeof(real_t);
  const double panel_bytes = 2.0 * stored * sizeof(real_t);
  const double arena_bytes =
      factor_.has_value()
          ? 2.0 *
                static_cast<double>(solve_schedule_->arena_entries_per_rhs()) *
                static_cast<double>(nrhs) * sizeof(real_t) *
                (1.0 + options_.batch_refinement_passes)
          : 0.0;
  report_.batch_rhs = nrhs;
  report_.batch_seconds = seconds;
  report_.batch_solves_per_second =
      seconds > 0.0 ? static_cast<double>(nrhs) / seconds : 0.0;
  report_.batch_bytes_per_solve =
      (sweeps * panel_bytes + arena_bytes) / static_cast<double>(nrhs);
  report_.batch_residual = residual;
  return x;
}

std::vector<real_t> Solver::solve_refined(std::span<const real_t> b) const {
  PARFACT_CHECK_MSG(has_factor(), "solve() before factorize()");
  const index_t n = sym_->n;
  check_rhs(b.size(), 1, "solve_refined");
  // Refine in the postordered space, where the factor lives.
  std::vector<real_t> pb(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) pb[k] = b[total_perm_[k]];
  std::vector<real_t> px = pb;
  solve_postordered(MatrixView{px.data(), n, 1, n});
  if (factor_.has_value()) {
    (void)iterative_refinement(sym_->a, *factor_, pb, px, *solve_schedule_,
                               solve_workspace_, worker_pool(),
                               options_.refinement_steps);
  } else {
    (void)ooc_refine_block(sym_->a, *ooc_factor_,
                           ConstMatrixView{pb.data(), n, 1, n},
                           MatrixView{px.data(), n, 1, n},
                           options_.refinement_steps);
  }
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) x[total_perm_[k]] = px[k];
  return x;
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

  // Cheapest first: plain direct solve.
  result.x = solve(b);
  result.path = SolvePath::kDirect;
  result.residual = residual(result.x, b);
  if (result.residual <= options_.target_residual) {
    result.status = factor_status;
    return result;
  }

  // Iterative refinement against the original matrix.
  {
    std::vector<real_t> refined = solve_refined(b);
    const real_t res = residual(refined, b);
    if (res < result.residual) {
      result.x = std::move(refined);
      result.residual = res;
      result.path = SolvePath::kRefined;
    }
    if (result.residual <= options_.target_residual) {
      result.status = factor_status;
      return result;
    }
  }

  // Last resort: IC(0)-preconditioned CG on the original matrix,
  // warm-started from the best direct answer. IC(0) runs with pivot
  // boosting so a perturbed/indefinite-leaning matrix still yields a
  // usable preconditioner; if it breaks down anyway, fall back to
  // unpreconditioned CG.
  {
    std::vector<real_t> x_cg = result.x;
    std::optional<SparseMatrix> ic0;
    try {
      PivotPolicy pivot;
      pivot.boost = true;
      pivot.threshold = options_.pivot_threshold;
      count_t ic0_perturbations = 0;
      ic0.emplace(
          incomplete_cholesky0(original_lower_, pivot, &ic0_perturbations));
    } catch (const Error&) {
      ic0.reset();
    }
    try {
      const CgResult cg = conjugate_gradient(
          original_lower_, b, x_cg, ic0 ? &*ic0 : nullptr,
          options_.cg_max_iterations, options_.target_residual);
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

  if (result.residual <= options_.target_residual) {
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
  PARFACT_CHECK_MSG(factor_.has_value(),
                    "condition_estimate() before factorize()");
  return estimate_condition_1(sym_->a, *factor_);
}

const SymbolicFactor& Solver::symbolic() const {
  PARFACT_CHECK(sym_.has_value());
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

SolveBatch::SolveBatch(const Solver& solver)
    : solver_(&solver), n_(solver.symbolic().n) {}

index_t SolveBatch::add(std::span<const real_t> b) {
  if (static_cast<index_t>(b.size()) != n_) {
    std::ostringstream os;
    os << "SolveBatch::add: right-hand side has " << b.size()
       << " entries, matrix order is " << n_;
    throw_invalid(os.str());
  }
  solved_ = false;
  b_.insert(b_.end(), b.begin(), b.end());
  return nrhs_++;
}

void SolveBatch::solve() {
  if (nrhs_ <= 0) {
    throw_invalid("SolveBatch::solve: batch holds no right-hand sides");
  }
  x_ = solver_->solve_batch(b_, nrhs_);
  solved_ = true;
}

std::span<const real_t> SolveBatch::solution(index_t i) const {
  PARFACT_CHECK_MSG(solved_, "SolveBatch::solution() before solve()");
  PARFACT_CHECK(i >= 0 && i < nrhs_);
  return {x_.data() + static_cast<std::size_t>(i) * n_,
          static_cast<std::size_t>(n_)};
}

void SolveBatch::reset() {
  b_.clear();
  x_.clear();
  nrhs_ = 0;
  solved_ = false;
}

SymbolicFactor analyze_nested_dissection(const SparseMatrix& lower,
                                         const OrderingOptions& nd,
                                         const AmalgamationOptions& amalg) {
  const std::vector<index_t> perm =
      nested_dissection(graph_from_pattern(lower), nd);
  return analyze(
      lower_triangle(permute_symmetric(symmetrize_full(lower), perm)), amalg);
}

}  // namespace parfact
