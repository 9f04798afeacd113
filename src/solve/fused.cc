#include "solve/fused.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "mf/dag_factor.h"
#include "runtime/scheduler.h"
#include "solve/solve.h"
#include "solve/solve_internal.h"
#include "support/error.h"
#include "support/timer.h"

namespace parfact {

CholeskyFactor multifrontal_factor_and_solve(
    const SymbolicFactor& sym, MatrixView x, const SolveSchedule& schedule,
    SolveWorkspace& workspace, ThreadPool& pool, FactorStats* stats,
    FactorKind kind, count_t coop_flops, PivotPolicy pivot,
    CancelToken cancel) {
  WallTimer timer;
  PARFACT_CHECK(x.rows == sym.n);
  PARFACT_CHECK_MSG(schedule.sym == &sym,
                    "SolveSchedule built for a different SymbolicFactor");
  pivot = resolve_pivot_policy(pivot, sym.a);
  CholeskyFactor factor(sym);
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = factor.allocate_diag();

  detail::FactorDag dag(sym, factor, kind, d, pivot, coop_flops,
                        pool.size() + 1);
  rt::TaskGraph graph;
  dag.emit(graph);

  // Fuse the first RHS block's forward sweep into the factor graph. The
  // block partition matches solve_in_place's, so later blocks (and the
  // backward sweeps) reproduce the unfused path exactly.
  const index_t w0 = std::min(schedule.rhs_block, x.cols);
  MatrixView x0 = x.block(0, 0, x.rows, w0);
  workspace.ensure(schedule, w0);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t p = sym.sn_cols(s);
    const index_t b = sym.sn_below(s);
    const count_t work =
        static_cast<count_t>(w0) *
        (static_cast<count_t>(p) * p + 2 * static_cast<count_t>(p) * b);
    const rt::tag_t tag =
        rt::make_tag(rt::TaskKind::kSolveFwd, static_cast<std::uint64_t>(s));
    graph.add_task(
        tag,
        [&factor, &schedule, &workspace, x0, s] {
          detail::forward_supernode(factor.panel(s), schedule, workspace, x0,
                                    s);
        },
        static_cast<double>(std::max<count_t>(work, 1)));
    // Needs this supernode's final panel plus every pull source's step.
    std::vector<rt::tag_t> deps(dag.panel_ready(s).begin(),
                                dag.panel_ready(s).end());
    index_t last_src = kNone;
    for (index_t q = schedule.in_ptr[s]; q < schedule.in_ptr[s + 1]; ++q) {
      const index_t src = schedule.in[q].src;
      if (src == last_src) continue;  // segments are grouped by source
      last_src = src;
      deps.push_back(rt::make_tag(rt::TaskKind::kSolveFwd,
                                  static_cast<std::uint64_t>(src)));
    }
    graph.declare_deps(tag, deps);
  }

  rt::run_graph(graph, pool, std::move(cancel));

  // Finish block 0 (diagonal + backward) and run any remaining blocks
  // through the normal engine — same partition, same sweeps.
  diagonal_solve(factor, x0);
  backward_solve(factor, x0, schedule, workspace, &pool);
  if (x.cols > w0) {
    solve_in_place(factor, x.block(0, w0, x.rows, x.cols - w0), schedule,
                   workspace, &pool);
  }

  if (stats != nullptr) {
    stats->seconds = timer.seconds();
    stats->flops = sym.total_flops;
    stats->peak_update_bytes = dag.peak_update_bytes();
    stats->pivot_perturbations = dag.perturbations();
  }
  return factor;
}

}  // namespace parfact
