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
/// read the extend-add performs, never re-read). For child i (in fixed
/// child order) and column cj of its block, entries [4*cj+0..1] hold the
/// {value, magnitude} sums over the rows that land in the parent's panel
/// and [4*cj+2..3] the sums over the rows that land in the parent's
/// update seed; pre+suf is the block column's full lower sum.
struct AssemblySums {
  std::vector<std::vector<real_t>> per_child;
};

/// Stage 1 — assembly: zeroes `update_out` (resized to b x b), scatters the
/// original matrix columns of supernode s into `panel`, then extend-adds
/// the children's update blocks *in fixed child order* (the deterministic-
/// merge discipline: the summation order per element never depends on the
/// execution schedule). Children's blocks are read, not freed. The scratch
/// map is restored on every exit path.
///
/// With `sums` non-null the extend-add also records each child block's
/// split column sums (see AssemblySums); the scatter performs the same
/// cell updates in the same order, so the assembled front is bitwise
/// identical either way.
void assemble_front(const SymbolicFactor& sym, index_t s,
                    const std::vector<std::vector<real_t>>& update_of,
                    const std::vector<std::vector<index_t>>& children,
                    MatrixView panel, std::vector<real_t>& update_out,
                    FrontScratch& scratch, AssemblySums* sums = nullptr);

/// Stage 2 — diagonal-block factorization: POTRF (Cholesky) or LDLᵀ of the
/// leading p x p block of `panel`; in LDLᵀ mode writes diag(D) for this
/// supernode's columns into `d`. Returns the number of pivots boosted under
/// `pivot` (0 with boosting off). On an unrecoverable pivot throws
/// StatusError carrying StatusCode::kBreakdown with the supernode id and
/// front size.
count_t factor_front_diag(const SymbolicFactor& sym, index_t s,
                          MatrixView panel, FactorKind kind,
                          std::span<real_t> d, const PivotPolicy& pivot);

/// Stage 3b (LDLᵀ only, after the panel TRSM): copies M = L21 D out of the
/// panel into `m` (b x p column-major) and rescales the stored panel to
/// L21 = M D⁻¹. `first` is the supernode's first postordered column (the
/// offset of its pivots in `d`).
void ldlt_scale_panel(MatrixView l21, std::span<const real_t> d,
                      index_t first, std::vector<real_t>& m);

/// Stage boundaries of eliminate_front at which per-front hooks run.
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
/// number of pivots boosted by `pivot` (always 0 with boosting off), or
/// kFrontRejected when a hook detected corruption.
///
/// `panel` (front_order x sn_cols, zeroed) receives the factor panel; the
/// trailing Schur complement is written into `update_out`. Children's update
/// blocks are consumed (extend-add) but not freed here. In LDLᵀ mode `d`
/// receives diag(D) for this supernode's columns and the panel holds the
/// unit-diagonal L. Breakdown behaviour is factor_front_diag's. `hooks`
/// (may be null) run after each stage and only read, except for injected
/// faults, so a clean front is bitwise identical with or without them.
count_t eliminate_front(const SymbolicFactor& sym, index_t s,
                        const std::vector<std::vector<real_t>>& update_of,
                        const std::vector<std::vector<index_t>>& children,
                        MatrixView panel, std::vector<real_t>& update_out,
                        FrontScratch& scratch, FactorKind kind,
                        std::span<real_t> d, const PivotPolicy& pivot = {},
                        FrontHooks* hooks = nullptr);

/// Child lists of the assembly tree.
[[nodiscard]] std::vector<std::vector<index_t>> build_children(
    const SymbolicFactor& sym);

/// Where the serial driver puts finished panels: `factor`, or else the
/// `spill` file, written from one reused buffer once a front is final.
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
