// Internal: the single-front assemble/eliminate kernel, split into its
// pipeline stages so the task-DAG engine (dag_factor.h) can schedule them
// as separate graph nodes, and the serial driver built on it — the one
// serial loop, whose features (panel destination, ABFT) are per-front hooks.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dense/matrix_view.h"
#include "mf/abft.h"
#include "mf/factor.h"
#include "mf/multifrontal.h"
#include "mf/ooc.h"
#include "support/resource.h"
#include "symbolic/symbolic_factor.h"

namespace parfact::detail {

/// Per-worker scratch: the global-row -> front-local-row map. Entries are
/// only valid for the front currently being assembled and are reset after.
struct FrontScratch {
  std::vector<index_t> local_of;
  explicit FrontScratch(index_t n)
      : local_of(static_cast<std::size_t>(n), kNone) {}
};

/// Split column sums of the child update blocks consumed by assembly,
/// produced on request by assemble_front (the ABFT hooks'
/// consumption-time verification — the blocks are summed from the very
/// read the extend-add performs, never re-read). For child i (the i-th of
/// sym.children(s)) and column cj of its block, entry [2*cj+0] holds the sum
/// over the rows that land in the parent's panel and [2*cj+1] the sum over
/// the rows that land in the parent's update seed; their total is the
/// block column's full lower sum.
struct AssemblySums {
  std::vector<std::vector<real_t>> per_child;
};

/// Stage 1 — assembly: zeroes the lower triangle of `update_out` (the b x b
/// update block of supernode s, column-major with ld = b, in storage the
/// caller provides; the whole block for `kind` LDLᵀ, whose update is a
/// GEMM), scatters the original matrix columns of s into `panel` (which the
/// caller zeroed), then extend-adds the children's update blocks in the
/// order of sym.children(s) (the deterministic-merge discipline: the
/// summation order per element never depends on the execution schedule).
/// `update_of[c]` is child c's block; children's blocks are read, not
/// freed. The scratch map is restored on every exit path.
///
/// With `sums` non-null the extend-add also records each child block's
/// split column sums (see AssemblySums); the scatter performs the same
/// cell updates in the same order, so the assembled front is bitwise
/// identical either way.
void assemble_front(const SymbolicFactor& sym, index_t s,
                    std::span<const real_t* const> update_of, MatrixView panel,
                    std::span<real_t> update_out, FrontScratch& scratch,
                    FactorKind kind, AssemblySums* sums = nullptr);

/// Stage 2 — diagonal-block factorization: POTRF (Cholesky) or LDLᵀ of the
/// leading p x p block of `panel`; in LDLᵀ mode writes diag(D) for this
/// supernode's columns into `d`. Returns the number of pivots boosted to
/// ±`pivot_magnitude` (see PivotBoost; 0 boosts nothing). On an
/// unrecoverable pivot throws StatusError carrying StatusCode::kBreakdown
/// with the supernode id and front size.
count_t factor_front_diag(const SymbolicFactor& sym, index_t s,
                          MatrixView panel, FactorKind kind,
                          std::span<real_t> d, real_t pivot_magnitude);

/// Stage 3b (LDLᵀ only, after the panel TRSM): copies M = L21 D out of the
/// panel into the first b x p entries of `m` (column-major) and rescales
/// the stored panel to L21 = M D⁻¹. `first` is the supernode's first
/// postordered column (the offset of its pivots in `d`).
void ldlt_scale_panel(MatrixView l21, std::span<const real_t> d,
                      index_t first, std::span<real_t> m);

/// Stage boundaries of eliminate_front at which per-front hooks run:
/// after assembly, after the diagonal block, after the panel solve (and
/// LDLᵀ rescale; also for a front with no rows below) and after the
/// trailing update.
enum class FrontStage { kAssembled, kDiagonal, kPanel, kUpdated };

/// Per-front hooks: the ABFT checks and fault injection (abft.cc).
class FrontHooks {
 public:
  /// The front at a stage boundary. `m` is what the trailing update
  /// multiplies L21 with (L21 for Cholesky, M = L21 D for LDLᵀ); empty
  /// before kPanel and when the front has no rows below.
  struct Front {
    index_t s;
    MatrixView panel;
    MatrixView update;
    ConstMatrixView m;
    count_t boosted;  ///< pivots boosted by the diagonal stage
  };

  FrontHooks() = default;
  FrontHooks(const FrontHooks&) = delete;
  FrontHooks& operator=(const FrontHooks&) = delete;
  virtual ~FrontHooks() = default;
  /// Where assemble_front records the child blocks' split sums.
  virtual AssemblySums* assembly_sums() = 0;
  /// false = corruption detected: eliminate_front abandons the front.
  virtual bool at(FrontStage stage, const Front& front) = 0;
  /// Front s was abandoned on its 0-based `attempt`; throws
  /// StatusError(kDataCorruption) once the retries are spent.
  virtual void rejected(index_t s, int attempt) = 0;
  /// Whether child c's live update block must be recomputed before its
  /// parent's retry.
  virtual bool block_corrupt(index_t c, ConstMatrixView block) = 0;
  /// Writes the counters (checks, detections) into `stats`.
  virtual void report(FactorStats& stats) const = 0;
};

/// eliminate_front's return value for a front abandoned by a hook.
inline constexpr count_t kFrontRejected = -1;

/// Assembles and partially factorizes the front of supernode s; returns the
/// number of pivots boosted to ±`pivot_magnitude` (always 0 with a zero
/// magnitude), or kFrontRejected when a hook detected corruption.
///
/// `panel` (front_order x sn_cols, zeroed) receives the factor panel; the
/// trailing Schur complement is written into `update_out` (b x b, see
/// assemble_front). Children's update blocks are consumed (extend-add) but
/// not freed here. In LDLᵀ mode `d` receives diag(D) for this supernode's
/// columns, the panel holds the unit-diagonal L, and `m` (at least b x p
/// reals; unused for Cholesky) stages M = L21 D. Breakdown behaviour is
/// factor_front_diag's. `hooks` (may be null) run after each stage and only
/// read, except for injected faults, so a clean front is bitwise identical
/// with or without them. The kernel allocates nothing itself.
count_t eliminate_front(const SymbolicFactor& sym, index_t s,
                        std::span<const real_t* const> update_of,
                        MatrixView panel, std::span<real_t> update_out,
                        std::span<real_t> m, FrontScratch& scratch,
                        FactorKind kind, std::span<real_t> d,
                        real_t pivot_magnitude = 0.0,
                        FrontHooks* hooks = nullptr);

/// Where the serial driver puts finished panels: `factor`, or else the
/// `spill` file, written from a buffer on the update-block arena once a
/// front is final.
struct PanelDest {
  CholeskyFactor* factor = nullptr;
  OocCholeskyFactor* spill = nullptr;
  /// The in-core panels already hold zeros (a fresh allocation); otherwise
  /// each panel is zeroed right before its front is assembled.
  bool zeroed = false;
};

/// The serial driver: factors the subtree rooted at `root` (the whole
/// forest for kNone) in postorder into `dest`, polling `cancel` once per
/// front; `stats` may be null. `d` is the caller-allocated LDLᵀ diagonal.
/// With `abft` its hooks run on every front, a rejected front's corrupt
/// child subtrees are re-run through this same loop before the retry, and
/// `checksums` (may be null) receives the at-rest sums.
///
/// Update blocks live in one arena per call, sized by the working-set
/// estimate (symbolic/working_set.h) and used as a stack from both ends;
/// `stats->peak_update_bytes` is its high-water mark. Only an ABFT repair
/// can outgrow it (its overflow blocks come from the heap).
void factor_serial(const SymbolicFactor& sym, PanelDest dest, FactorKind kind,
                   std::span<real_t> d, PivotPolicy pivot, FactorStats* stats,
                   CancelToken cancel = {}, const AbftOptions* abft = nullptr,
                   FactorChecksums* checksums = nullptr,
                   index_t root = kNone);

/// The ABFT checks as per-front hooks (abft.cc).
[[nodiscard]] std::unique_ptr<FrontHooks> make_abft_hooks(
    const SymbolicFactor& sym, FactorKind kind, std::span<const real_t> d,
    const AbftOptions& options, FactorChecksums* checksums);

}  // namespace parfact::detail
