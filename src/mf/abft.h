// ABFT (algorithm-based fault tolerance) for the multifrontal
// factorization: checksum-carrying fronts in the Huang–Abraham style.
//
// Threat model (DESIGN.md §5f): a soft error flips bits in *computed or
// stored* fp64 data — a frontal panel after a kernel, a child's update
// block waiting in the multifrontal stack, or the factor at rest between
// factorize and solve. Message-loss, crash and resource faults are handled
// by earlier layers; hashes cannot help here because the numbers
// legitimately change at every kernel, so the defense is algebraic, on
// LOWER (trapezoidal-storage) column sums throughout:
//
//   assembly   lowcols(front) = lowcols(A-scatter) + Σ lowcols(child U)
//   POTRF      e'A11 = (e'L11) L11'          (LDLᵀ: (e'L ∘ d) L')
//   TRSM       colsums(M) L11' = colsums(A21)   with M = A21 L11⁻ᵀ
//   UPDATE     lowcol_j(U') = lowcol_j(U0) − Σ_k suffix_j(L21·ₖ) M(j,k)
//
// Every identity is O(front²) against the kernels' O(front³). The first
// three are checked within the front; the UPDATE identity's prediction is
// carried to the parent and compared against the block's actual sums
// during the parent's extend-add — the block's one and only read, so the
// check adds no memory traffic of its own. A mismatch is *localized to
// one front* (assembly mismatches are further localized to the corrupt
// child via its carried prediction), and repaired by recomputing just
// that front — or, for a corrupted in-memory update block, the
// contiguous postorder subtree that produces it. The checks are per-front
// hooks of the serial driver (front_kernel.h), and a repair re-runs the
// subtree through that same driver, so ABFT works with either panel
// destination (repaired panels of a spilled factor are rewritten on disk).
// The serial kernels are deterministic, so the repaired factor is bitwise
// identical to a clean run. Corruption that survives kMaxFrontAttempts
// recomputes of one front (a sticky fault) surfaces as
// StatusError(kDataCorruption) naming the front.
//
// The same column sums, captured per factor column at front completion,
// double as an at-rest integrity check (`verify_factor`) that the Solver
// facade uses to localize and repair storage corruption found by the
// post-solve residual verification.
#pragma once

#include "mf/multifrontal.h"
#include "support/types.h"

namespace parfact {

/// Where a seeded fault strikes in the numeric pipeline.
enum class SdcSite {
  kAssembly = 0,   ///< assembled panel, after extend-add
  kPotrf = 1,      ///< L11 block, after the diagonal factorization
  kTrsm = 2,       ///< L21 block, after the panel solve
  kUpdate = 3,     ///< Schur update block, after SYRK/GEMM
  kStoredFactor = 4,  ///< factor at rest, between factorize and solve
};

/// One seeded single-bit fault. The flipped element is chosen
/// deterministically from `seed` within the site's region of the target
/// supernode's front, so campaigns are reproducible.
struct SdcInjection {
  SdcSite site = SdcSite::kPotrf;
  index_t supernode = kNone;  ///< kNone: derived from seed
  std::uint64_t seed = 1;
  int bit = 62;        ///< IEEE-754 bit to flip (62 = top exponent bit)
  bool sticky = false;  ///< re-strike on every recompute (models a hard
                        ///< fault; must surface as kDataCorruption)
};

/// Relative tolerance of the checksum identities (abft_mismatch). The
/// identities hold to O(front · eps) ≈ 1e-13 relative on real fronts; 1e-8
/// leaves orders of magnitude of margin while catching any flip that moves
/// a value by more than rounding noise.
inline constexpr real_t kAbftTolerance = 1e-8;

/// Detection → recompute attempts per front before the fault is declared
/// sticky and the factorization fails with kDataCorruption.
inline constexpr int kMaxFrontAttempts = 3;

struct AbftOptions {
  const SdcInjection* inject = nullptr;  ///< fault campaign hook
};

/// Per-column integrity sums of a completed factor: for each postordered
/// column, the sum (and absolute-value sum, the tolerance scale) of its
/// stored trapezoidal panel column. Produced by the ABFT engine at front
/// completion and refreshed by recompute_subtree.
struct FactorChecksums {
  std::vector<real_t> col_sum;
  std::vector<real_t> col_abs;
  [[nodiscard]] bool empty() const { return col_sum.empty(); }
};

/// Serial multifrontal factorization with ABFT checks interleaved after
/// every kernel stage: the serial driver with the ABFT hooks attached. On
/// a clean run the factor is bitwise identical to multifrontal_factor (the
/// checks only read). Detected corruption is repaired by bounded
/// recompute; `stats` reports checks/detections/recomputed fronts on top
/// of the usual fields. When `checksums` is non-null it receives the
/// per-column factor sums for at-rest verification.
[[nodiscard]] CholeskyFactor multifrontal_factor_abft(
    const SymbolicFactor& sym, FactorStats* stats = nullptr,
    FactorKind kind = FactorKind::kCholesky, PivotPolicy pivot = {},
    const AbftOptions& options = {}, FactorChecksums* checksums = nullptr,
    CancelToken cancel = {});

/// Upper bound of the bytes the ABFT hooks hold beyond the hookless
/// working set of a clean run: the at-rest checksums (2n, with
/// `checksums`), the predictions carried with every live update block (2b
/// each, peaking along the update stack's postorder), the per-front check
/// scratch sized by the widest front and its children, and the hooks'
/// per-supernode tables. A repair holds more for its duration: it re-runs a
/// child subtree while the parent's other child blocks are live.
[[nodiscard]] std::size_t abft_state_bytes(const SymbolicFactor& sym,
                                           FactorKind kind, bool checksums);

/// Verifies the stored factor against its column sums (to kAbftTolerance);
/// returns the first supernode whose panel mismatches, or kNone if the
/// factor is intact.
[[nodiscard]] index_t verify_factor(const SymbolicFactor& sym,
                                    const CholeskyFactor& factor,
                                    const FactorChecksums& checksums);

/// Repairs the factor by re-running the contiguous postorder subtree
/// rooted at `root` ([sym.first_descendant(root), root]) from the original
/// matrix through the serial driver. Deterministic kernels make the result
/// bitwise identical to the original clean computation. Refreshes
/// `checksums` for the recomputed columns when non-null. Returns the number
/// of fronts recomputed.
count_t recompute_subtree(const SymbolicFactor& sym, index_t root,
                          FactorKind kind, PivotPolicy pivot,
                          CholeskyFactor& factor,
                          FactorChecksums* checksums = nullptr);

/// Applies a kStoredFactor fault: flips one bit of one stored panel value
/// of the injection's target supernode. Returns the supernode struck.
index_t inject_factor_bitflip(const SymbolicFactor& sym,
                              CholeskyFactor& factor,
                              const SdcInjection& injection);

}  // namespace parfact
