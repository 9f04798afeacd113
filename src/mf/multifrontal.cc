#include "mf/multifrontal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mf/front_kernel.h"
#include "sparse/ops.h"
#include "support/error.h"
#include "support/timer.h"

namespace parfact {

PivotPolicy resolve_pivot_policy(PivotPolicy policy, const SparseMatrix& a) {
  if (!policy.boost) return policy;
  const real_t scale =
      std::sqrt(std::numeric_limits<real_t>::epsilon()) * max_abs(a);
  if (policy.threshold == 0.0) policy.threshold = scale;
  if (policy.value == 0.0) policy.value = policy.threshold;
  return policy;
}

CholeskyFactor multifrontal_factor(const SymbolicFactor& sym,
                                   FactorStats* stats, FactorKind kind,
                                   PivotPolicy pivot, CancelToken cancel) {
  CholeskyFactor factor(sym);
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = factor.allocate_diag();
  detail::factor_serial(sym, {.factor = &factor, .zeroed = true}, kind, d,
                        pivot, stats, std::move(cancel));
  return factor;
}

void multifrontal_refactor(const SymbolicFactor& sym, CholeskyFactor& factor,
                           FactorStats* stats, FactorKind kind,
                           PivotPolicy pivot, CancelToken cancel) {
  PARFACT_CHECK(&factor.symbolic() == &sym);
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = factor.allocate_diag();
  detail::factor_serial(sym, {.factor = &factor}, kind, d, pivot, stats,
                        std::move(cancel));
}

namespace detail {
namespace {

// State of one factor_serial call. Repairs re-enter run() recursively.
struct SerialDriver {
  const SymbolicFactor& sym;
  const PanelDest dest;
  const FactorKind kind;
  const std::span<real_t> d;
  const PivotPolicy pivot;
  FrontHooks* const hooks;
  const CancelToken cancel;
  const std::vector<std::vector<index_t>> children = build_children(sym);
  std::vector<std::vector<real_t>> update_of =
      std::vector<std::vector<real_t>>(sym.n_supernodes);
  std::vector<count_t> perturb_of = std::vector<count_t>(sym.n_supernodes);
  FrontScratch scratch{sym.n};
  std::vector<real_t> spill_buf{};
  bool panels_zeroed = dest.zeroed;
  std::size_t live = 0;  ///< live update-block bytes
  std::size_t peak = 0;  ///< peak of live + the spill buffer
  count_t fronts_recomputed = 0;

  // Factors the contiguous postorder range [lo, hi]: the whole forest, or
  // one subtree [first_descendant(hi), hi].
  void run(index_t lo, index_t hi) {
    for (index_t s = lo; s <= hi; ++s) {
      cancel.throw_if_cancelled();
      run_front(s);
      live += update_of[s].size() * sizeof(real_t);
      peak = std::max(peak, live + spill_buf.size() * sizeof(real_t));
      for (const index_t c : children[s]) {
        live -= update_of[c].size() * sizeof(real_t);
        update_of[c] = {};
      }
    }
  }

  void run_front(index_t s) {
    const index_t f = sym.front_order(s);
    const index_t p = sym.sn_cols(s);
    for (int attempt = 0;; ++attempt) {
      // assemble_front scatters with +=: a panel needs a clean slate unless
      // it is a fresh allocation visited for the first time.
      MatrixView panel;
      if (dest.spill != nullptr) {
        spill_buf.assign(static_cast<std::size_t>(f) * p, 0.0);
        panel = {spill_buf.data(), f, p, f};
      } else {
        panel = dest.factor->panel(s);
        if (attempt > 0 || !panels_zeroed) panel.fill(0.0);
      }
      const count_t boosted =
          eliminate_front(sym, s, update_of, children, panel, update_of[s],
                          scratch, kind, d, pivot, hooks);
      if (boosted != kFrontRejected) {
        if (dest.spill != nullptr) dest.spill->write_panel(s, panel);
        perturb_of[s] = boosted;
        return;
      }
      // Only a hook rejects a front. Its stage baselines are predictions
      // built from the children's blocks, so re-verify those and recompute
      // any corrupt child subtree before the retry.
      hooks->rejected(s, attempt);
      ++fronts_recomputed;
      for (const index_t c : children[s]) {
        const index_t cb = sym.sn_below(c);
        if (hooks->block_corrupt(c, {update_of[c].data(), cb, cb, cb})) {
          // Regenerates c's live block; every panel of the subtree was
          // written before, so all of them restart from zero.
          index_t lo = c;
          while (!children[lo].empty()) lo = children[lo].front();
          live -= update_of[c].size() * sizeof(real_t);
          panels_zeroed = false;
          fronts_recomputed += c - lo + 1;
          run(lo, c);
        }
      }
    }
  }
};

}  // namespace

void factor_serial(const SymbolicFactor& sym, PanelDest dest, FactorKind kind,
                   std::span<real_t> d, PivotPolicy pivot, FactorStats* stats,
                   CancelToken cancel, const AbftOptions* abft,
                   FactorChecksums* checksums, index_t root) {
  PARFACT_CHECK((dest.factor != nullptr) != (dest.spill != nullptr));
  WallTimer timer;
  std::unique_ptr<FrontHooks> hooks;
  if (abft != nullptr) hooks = make_abft_hooks(sym, kind, d, *abft, checksums);
  SerialDriver driver{sym,         dest,        kind,
                      d,           resolve_pivot_policy(pivot, sym.a),
                      hooks.get(), std::move(cancel)};
  if (root == kNone) {
    driver.run(0, sym.n_supernodes - 1);
  } else {
    driver.run(first_descendant(sym, root), root);
  }
  if (stats == nullptr) return;
  *stats = FactorStats{};
  stats->seconds = timer.seconds();
  stats->flops = sym.total_flops;
  stats->peak_update_bytes = driver.peak;
  for (const count_t c : driver.perturb_of) stats->pivot_perturbations += c;
  stats->fronts_recomputed = driver.fronts_recomputed;
  if (hooks != nullptr) hooks->report(*stats);
}

}  // namespace detail

}  // namespace parfact
