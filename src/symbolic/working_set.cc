#include "symbolic/working_set.h"

#include <algorithm>
#include <cstdint>

namespace parfact {

WorkingSetEstimate estimate_working_set(const SymbolicFactor& sym,
                                        bool ldlt) {
  WorkingSetEstimate est;
  const std::size_t real_sz = sizeof(real_t);

  // Physical panel allocation, not trapezoid nonzeros: CholeskyFactor
  // stores each supernode as a full front_order x sn_cols rectangle (the
  // strict upper triangle of the diagonal block is padding), and it is the
  // allocation the budget must admit.
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    est.factor_bytes += static_cast<std::size_t>(sym.front_order(s)) *
                        sym.sn_cols(s) * real_sz;
  }
  if (ldlt) est.factor_bytes += static_cast<std::size_t>(sym.n) * real_sz;

  // Replay the serial postorder's update stack. The driver pushes supernode
  // s's b×b contribution block while the children's blocks are still live
  // (extend-add reads them), then pops the children — so the peak candidate
  // at s is live-before + own block (+ the streamed panel buffer, OOC).
  auto update_bytes = [&](index_t s) {
    const std::size_t b = static_cast<std::size_t>(sym.sn_below(s));
    return b * b * real_sz;
  };
  auto panel_bytes = [&](index_t s) {
    return static_cast<std::size_t>(sym.front_order(s)) * sym.sn_cols(s) *
           real_sz;
  };

  std::size_t live = 0;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    live += update_bytes(s);
    est.peak_update_bytes = std::max(est.peak_update_bytes, live);
    est.peak_ooc_update_bytes =
        std::max(est.peak_ooc_update_bytes, live + panel_bytes(s));
    for (index_t c : sym.children(s)) live -= update_bytes(c);

    if (panel_bytes(s) > est.largest_front_bytes) {
      est.largest_front_bytes = panel_bytes(s);
      est.largest_front = s;
    }
    if (ldlt) {
      est.max_m_bytes =
          std::max(est.max_m_bytes, static_cast<std::size_t>(sym.sn_below(s)) *
                                        sym.sn_cols(s) * real_sz);
    }
  }

  est.scratch_bytes =
      static_cast<std::size_t>(sym.n) * sizeof(index_t) + est.max_m_bytes;

  est.peak_incore_bytes =
      est.factor_bytes + est.peak_update_bytes + est.scratch_bytes;
  // OOC keeps D in memory for LDLᵀ (only panels spill), plus the per-panel
  // offset/checksum tables of the scratch file.
  std::size_t ooc_side = static_cast<std::size_t>(sym.n_supernodes) *
                         (sizeof(count_t) + sizeof(std::uint64_t));
  if (ldlt) ooc_side += static_cast<std::size_t>(sym.n) * real_sz;
  est.peak_ooc_bytes =
      est.peak_ooc_update_bytes + est.scratch_bytes + ooc_side;

  return est;
}

}  // namespace parfact
