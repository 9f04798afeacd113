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
#include "symbolic/working_set.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace parfact {

real_t pivot_magnitude(PivotPolicy policy, const SparseMatrix& a) {
  if (!policy.boost) return 0.0;
  return std::sqrt(std::numeric_limits<real_t>::epsilon()) * max_abs(a);
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

// ASan cannot see a write past one arena block into its neighbour, so in
// sanitizer builds the arena poisons everything not handed out.
#if defined(__SANITIZE_ADDRESS__)
#define PARFACT_ARENA_POISON(p, n) \
  ASAN_POISON_MEMORY_REGION((p), (n) * sizeof(real_t))
#define PARFACT_ARENA_UNPOISON(p, n) \
  ASAN_UNPOISON_MEMORY_REGION((p), (n) * sizeof(real_t))
#else
#define PARFACT_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define PARFACT_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

// The serial driver's update-block storage: one uninitialized buffer used
// as a stack from each end. Blocks of even-depth supernodes stack up from
// the front, blocks of odd-depth ones down from the back. In postorder a
// front's children are then the top blocks of the opposite end, so both
// ends stay LIFO, no block is ever copied, and the bytes in use are exactly
// the live bytes: sized by the working-set estimate's peak, a clean run
// always fits. A push that does not fit — only an ABFT repair, which
// re-runs a subtree while its parent's other children are live, gets there
// — gets a heap block of its own, released on pop, and is counted so the
// driver can check that a clean run never overflows.
class UpdateArena {
 public:
  explicit UpdateArena(std::size_t bytes)
      : cap_(bytes / sizeof(real_t)),
        buf_(std::make_unique_for_overwrite<real_t[]>(cap_)) {
    PARFACT_ARENA_POISON(buf_.get(), cap_);
  }
  UpdateArena(const UpdateArena&) = delete;
  UpdateArena& operator=(const UpdateArena&) = delete;
  ~UpdateArena() { PARFACT_ARENA_UNPOISON(buf_.get(), cap_); }

  // Uninitialized storage for n reals on the front or `back` end.
  real_t* push(std::size_t n, bool back) {
    used_ += n;
    high_ = std::max(high_, used_);
    if (front_ + back_ + n > cap_) {
      ++overflow_pushes_;
      return overflow_.emplace_back(std::make_unique_for_overwrite<real_t[]>(n))
          .get();
    }
    real_t* p = back ? buf_.get() + cap_ - (back_ += n)
                     : buf_.get() + std::exchange(front_, front_ + n);
    PARFACT_ARENA_UNPOISON(p, n);
    return p;
  }

  // Releases the top block of its end (or an overflow block).
  void pop(real_t* p, std::size_t n, bool back) {
    used_ -= n;
    const auto heap = std::find_if(overflow_.begin(), overflow_.end(),
                                   [p](const auto& o) { return o.get() == p; });
    if (heap != overflow_.end()) {
      overflow_.erase(heap);
      return;
    }
    if (back) {
      PARFACT_CHECK(p == buf_.get() + cap_ - back_);
      back_ -= n;
    } else {
      PARFACT_CHECK(p + n == buf_.get() + front_);
      front_ -= n;
    }
    PARFACT_ARENA_POISON(p, n);
  }

  // Peak bytes in use, overflow blocks included.
  [[nodiscard]] std::size_t high_water_bytes() const {
    return high_ * sizeof(real_t);
  }
  // Pushes that got a heap block because the arena was full.
  [[nodiscard]] count_t overflow_pushes() const { return overflow_pushes_; }

 private:
  const std::size_t cap_;  ///< reals
  const std::unique_ptr<real_t[]> buf_;
  std::size_t front_ = 0;  ///< reals in use at each end
  std::size_t back_ = 0;
  std::size_t used_ = 0;  ///< reals in use, overflow blocks included
  std::size_t high_ = 0;
  count_t overflow_pushes_ = 0;
  std::vector<std::unique_ptr<real_t[]>> overflow_;
};

// Which end of the arena holds each supernode's block: its depth's parity.
std::vector<char> odd_depth(const SymbolicFactor& sym) {
  std::vector<char> odd(static_cast<std::size_t>(sym.n_supernodes), 0);
  for (index_t s = sym.n_supernodes - 1; s >= 0; --s) {
    if (sym.sn_parent[s] != kNone) odd[s] = !odd[sym.sn_parent[s]];
  }
  return odd;
}

// State of one factor_serial call. Repairs re-enter run() recursively.
struct SerialDriver {
  const SymbolicFactor& sym;
  const PanelDest dest;
  const FactorKind kind;
  const std::span<real_t> d;
  const real_t pivot_magnitude;
  FrontHooks* const hooks;
  const CancelToken cancel;
  const WorkingSetEstimate est =
      estimate_working_set(sym, kind == FactorKind::kLdlt);
  const std::vector<char> back = odd_depth(sym);
  UpdateArena arena{dest.spill != nullptr ? est.peak_ooc_update_bytes
                                          : est.peak_update_bytes};
  std::vector<real_t*> update_of =
      std::vector<real_t*>(static_cast<std::size_t>(sym.n_supernodes));
  const std::unique_ptr<real_t[]> m_buf =
      std::make_unique_for_overwrite<real_t[]>(est.max_m_bytes /
                                               sizeof(real_t));
  std::vector<count_t> perturb_of = std::vector<count_t>(sym.n_supernodes);
  FrontScratch scratch{sym.n};
  bool panels_zeroed = dest.zeroed;
  count_t fronts_recomputed = 0;

  [[nodiscard]] std::size_t block_size(index_t s) const {
    const auto b = static_cast<std::size_t>(sym.sn_below(s));
    return b * b;
  }

  // Factors the contiguous postorder range [lo, hi]: the whole forest, or
  // one subtree [sym.first_descendant(hi), hi]. A repaired child subtree's
  // root `hi` keeps its live block (`hi_live`).
  void run(index_t lo, index_t hi, bool hi_live = false) {
    for (index_t s = lo; s <= hi; ++s) {
      cancel.throw_if_cancelled();
      if (s != hi || !hi_live) {
        update_of[s] = arena.push(block_size(s), back[s]);
      }
      run_front(s);
      const auto children = sym.children(s);
      for (auto c = children.rbegin(); c != children.rend(); ++c) {
        arena.pop(update_of[*c], block_size(*c), back[*c]);
        update_of[*c] = nullptr;
      }
    }
  }

  void run_front(index_t s) {
    const index_t f = sym.front_order(s);
    const index_t p = sym.sn_cols(s);
    const std::size_t panel_size = static_cast<std::size_t>(f) * p;
    // A spilled front is assembled in a buffer on top of its own block.
    real_t* const spill =
        dest.spill != nullptr ? arena.push(panel_size, back[s]) : nullptr;
    const MatrixView panel = spill != nullptr ? MatrixView{spill, f, p, f}
                                              : dest.factor->panel(s);
    for (int attempt = 0;; ++attempt) {
      // assemble_front scatters with +=: a panel needs a clean slate unless
      // it is a fresh allocation visited for the first time.
      if (spill != nullptr || attempt > 0 || !panels_zeroed) panel.fill(0.0);
      const count_t boosted = eliminate_front(
          sym, s, update_of, panel, {update_of[s], block_size(s)},
          {m_buf.get(), est.max_m_bytes / sizeof(real_t)}, scratch, kind, d,
          pivot_magnitude, hooks);
      if (boosted != kFrontRejected) {
        if (spill != nullptr) {
          dest.spill->write_panel(s, panel);
          arena.pop(spill, panel_size, back[s]);
        }
        perturb_of[s] = boosted;
        return;
      }
      // Only a hook rejects a front. Its stage baselines are predictions
      // built from the children's blocks, so re-verify those and recompute
      // any corrupt child subtree before the retry.
      hooks->rejected(s, attempt);
      ++fronts_recomputed;
      for (const index_t c : sym.children(s)) {
        const index_t cb = sym.sn_below(c);
        if (hooks->block_corrupt(c, {update_of[c], cb, cb, cb})) {
          // Regenerates c's block in place; every panel of the subtree was
          // written before, so all of them restart from zero.
          const index_t lo = sym.first_descendant(c);
          panels_zeroed = false;
          fronts_recomputed += c - lo + 1;
          run(lo, c, /*hi_live=*/true);
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
                      d,           pivot_magnitude(pivot, sym.a),
                      hooks.get(), std::move(cancel)};
  if (root == kNone) {
    driver.run(0, sym.n_supernodes - 1);
  } else {
    driver.run(sym.first_descendant(root), root);
  }
  // The arena holds the estimate's peak, so only a repair may overflow it.
  PARFACT_CHECK(driver.fronts_recomputed > 0 ||
                driver.arena.overflow_pushes() == 0);
  if (stats == nullptr) return;
  *stats = FactorStats{};
  stats->seconds = timer.seconds();
  stats->flops = sym.total_flops;
  stats->peak_update_bytes = driver.arena.high_water_bytes();
  for (const count_t c : driver.perturb_of) stats->pivot_perturbations += c;
  stats->fronts_recomputed = driver.fronts_recomputed;
  if (hooks != nullptr) hooks->report(*stats);
}

}  // namespace detail

}  // namespace parfact
