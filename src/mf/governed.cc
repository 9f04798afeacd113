#include "mf/governed.h"

#include <span>
#include <sstream>
#include <utility>

#include "mf/front_kernel.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace parfact {

const char* admission_name(Admission a) {
  switch (a) {
    case Admission::kUnlimited:
      return "unlimited";
    case Admission::kInCore:
      return "in-core";
    case Admission::kSpill:
      return "spill";
    case Admission::kRejected:
      return "rejected";
  }
  return "unknown";
}

namespace {

// The engine rule (GovernedOptions::pool).
bool runs_task_dag(const ThreadPool* pool, bool budget_limited, bool abft) {
  return pool != nullptr && pool->size() > 1 && !budget_limited && !abft;
}

// The engine the rule picks, into `dest`: the task DAG (in-core only), or
// the serial driver with the run's ABFT hooks.
void run_engine(const SymbolicFactor& sym, const ResourceBudget& budget,
                const GovernedOptions& opts, detail::PanelDest dest,
                FactorStats& stats, FactorChecksums* checksums) {
  if (dest.factor != nullptr &&
      runs_task_dag(opts.pool, budget.limited(), opts.abft.has_value())) {
    multifrontal_refactor_parallel(sym, *dest.factor, *opts.pool, &stats,
                                   opts.kind, kCoopFrontFlops, opts.pivot,
                                   opts.cancel);
    return;
  }
  std::span<real_t> d;
  if (opts.kind == FactorKind::kLdlt) {
    d = dest.factor != nullptr ? dest.factor->allocate_diag()
                               : dest.spill->allocate_diag();
  }
  detail::factor_serial(sym, dest, opts.kind, d, opts.pivot, &stats,
                        opts.cancel, opts.abft ? &*opts.abft : nullptr,
                        checksums);
}

// Runs `run`, turning what a numeric run throws into a Status.
template <typename Run>
Status run_guarded(Run&& run, const FactorStats& stats) {
  try {
    run();
  } catch (const StatusError& e) {
    return e.status();
  } catch (const Error& e) {
    return Status::failure(StatusCode::kInternal, e.what());
  }
  return Status::success(stats.pivot_perturbations);
}

// The one admission rule (AdmissionDecision).
AdmissionDecision admit_factorization(const SymbolicFactor& sym,
                                      ResourceBudget& budget,
                                      const GovernedOptions& opts) {
  AdmissionDecision out;
  out.estimate = estimate_working_set(sym, opts.kind == FactorKind::kLdlt);
  const WorkingSetEstimate& est = out.estimate;
  // The ABFT state rides on either rung; only the in-core one arms the
  // at-rest checksums.
  std::size_t incore = est.peak_incore_bytes;
  std::size_t ooc = est.peak_ooc_bytes;
  if (opts.abft) {
    incore += abft_state_bytes(sym, opts.kind, true);
    ooc += abft_state_bytes(sym, opts.kind, false);
  }

  // Pick the highest rung whose reservation fits. With no limit the
  // in-core reservation always succeeds (and still meters the peak).
  if (auto r = Reservation::acquire(budget, incore)) {
    out.reservation = std::move(*r);
    out.admission =
        budget.limited() ? Admission::kInCore : Admission::kUnlimited;
  } else if (!opts.spill_path.empty()) {
    if (auto r2 = Reservation::acquire(budget, ooc)) {
      out.reservation = std::move(*r2);
      out.admission = Admission::kSpill;
    }
  }
  if (!out.reservation.held()) {
    std::ostringstream os;
    os << "memory budget too small: estimated " << incore
       << " bytes in-core, " << ooc << " bytes with OOC spill";
    if (opts.abft) os << " (ABFT state included)";
    os << ", budget " << budget.limit_bytes() << " bytes ("
       << budget.live_bytes() << " already reserved)";
    out.status = Status::failure(StatusCode::kResourceExhausted, os.str());
  }
  return out;
}

}  // namespace

GovernedFactorizeResult multifrontal_factorize_governed(
    const SymbolicFactor& sym, ResourceBudget& budget,
    const GovernedOptions& opts) {
  GovernedFactorizeResult result;
  static_cast<AdmissionDecision&>(result) =
      admit_factorization(sym, budget, opts);
  if (result.admission == Admission::kRejected) return result;
  const bool spill = result.admission == Admission::kSpill;

  result.status = run_guarded(
      [&] {
        if (spill) {
          run_engine(sym, budget, opts,
                     {.spill = &result.ooc.emplace(sym, opts.spill_path)},
                     result.stats, nullptr);
          result.bytes_spilled =
              static_cast<std::size_t>(result.ooc->bytes_on_disk());
        } else {
          run_engine(sym, budget, opts,
                     {.factor = &result.factor.emplace(sym), .zeroed = true},
                     result.stats, &result.checksums);
        }
      },
      result.stats);
  if (result.status.failed()) {
    result.factor.reset();
    result.ooc.reset();
    result.reservation.reset();
    result.checksums = FactorChecksums{};
  }
  return result;
}

Status multifrontal_refactor_governed(const SymbolicFactor& sym,
                                      const ResourceBudget& budget,
                                      const GovernedOptions& opts,
                                      CholeskyFactor& factor,
                                      FactorStats& stats,
                                      FactorChecksums& checksums) {
  PARFACT_CHECK(&factor.symbolic() == &sym);
  return run_guarded(
      [&] { run_engine(sym, budget, opts, {.factor = &factor}, stats,
                       &checksums); },
      stats);
}

}  // namespace parfact
