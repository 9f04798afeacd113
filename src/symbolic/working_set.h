// Peak working-set prediction from the symbolic factorization alone.
//
// The admission-control layer (mf/governed.h) must decide *before* any
// numeric allocation whether a factorization fits a memory budget in-core,
// fits only with the OOC panel spill, or cannot run at all. The serial
// driver walks the assembly tree in the postorder the symbolic phase fixed,
// so its memory profile is fully determined here — and the driver sizes
// its update-block arena from this estimate, so `peak_update_bytes` (and
// the OOC resident peak) is byte-exact against the arena high-water mark
// `FactorStats::peak_update_bytes` reports (governance_test asserts this).
#pragma once

#include <cstddef>

#include "support/types.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

/// Predicted memory profile of one factorization of `sym`.
struct WorkingSetEstimate {
  /// In-core factor storage: all panels (nnz_stored entries) plus the D
  /// vector when factoring LDLᵀ. Allocated upfront by CholeskyFactor.
  std::size_t factor_bytes = 0;
  /// Peak of the multifrontal update stack in the serial postorder — live
  /// children's contribution blocks plus the front being eliminated. The
  /// in-core serial driver's arena size, hence byte-exact vs its
  /// FactorStats::peak_update_bytes.
  std::size_t peak_update_bytes = 0;
  /// Peak of (update stack + streamed panel buffer): the OOC driver's arena
  /// size, byte-exact vs its FactorStats::peak_update_bytes.
  std::size_t peak_ooc_update_bytes = 0;
  /// Largest per-front LDLᵀ M = L21·D staging buffer (0 for Cholesky): the
  /// one M buffer the serial driver allocates.
  std::size_t max_m_bytes = 0;
  /// Side allocations both drivers make: the FrontScratch index map and
  /// max_m_bytes.
  std::size_t scratch_bytes = 0;

  /// Total admission requirement for an in-core run.
  std::size_t peak_incore_bytes = 0;
  /// Total admission requirement for an OOC-spill run (panels on disk,
  /// only the update stack and one streamed panel resident).
  std::size_t peak_ooc_bytes = 0;

  /// Largest dense front (the in-core floor no schedule can undercut).
  index_t largest_front = kNone;
  std::size_t largest_front_bytes = 0;
};

/// Computes the estimate for a Cholesky (`ldlt == false`) or LDLᵀ run.
[[nodiscard]] WorkingSetEstimate estimate_working_set(
    const SymbolicFactor& sym, bool ldlt);

}  // namespace parfact
