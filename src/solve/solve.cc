#include "solve/solve.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "dense/kernels.h"
#include "mf/ooc.h"
#include "runtime/scheduler.h"
#include "runtime/task_graph.h"
#include "sparse/ops.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace parfact {
namespace {

/// Forward-solves supernode s's panel rows for the current RHS block:
/// pulls pending descendant updates from the arena (ascending source
/// order — the exact per-element addition sequence of the serial postorder
/// push), runs the panel TRSM, then deposits this supernode's own update
/// −L21·x1 into its arena slice for its ancestors to pull. All writes are
/// to rows this supernode owns, so the tree partition never races.
void forward_supernode(ConstMatrixView panel, const SolveSchedule& sched,
                       SolveWorkspace& ws, MatrixView x, index_t s) {
  const SymbolicFactor& sym = *sched.sym;
  const index_t p = sym.sn_cols(s);
  const index_t b = sym.sn_below(s);
  const index_t first = sym.sn_start[s];
  const index_t w = x.cols;
  MatrixView x1 = x.block(first, 0, p, w);
  for (index_t k = sched.in_ptr[s]; k < sched.in_ptr[s + 1]; ++k) {
    const SolveSchedule::Incoming& inc = sched.in[k];
    const index_t bs = sym.sn_below(inc.src);
    const index_t off = sym.sn_row_ptr[inc.src];
    const real_t* u =
        ws.arena.data() + static_cast<std::size_t>(off) * w;
    for (index_t c = 0; c < w; ++c) {
      const real_t* uc = u + static_cast<std::size_t>(c) * bs;
      for (index_t g = inc.lo; g < inc.hi; ++g) {
        x1.at(sym.sn_rows[g] - first, c) += uc[g - off];
      }
    }
  }
  trsm_left_lower(panel.block(0, 0, p, p), x1);
  if (b == 0) return;
  real_t* us =
      ws.arena.data() + static_cast<std::size_t>(sym.sn_row_ptr[s]) * w;
  std::fill(us, us + static_cast<std::size_t>(b) * w, 0.0);
  MatrixView t{us, b, w, b};
  gemm_nn_update(t, panel.block(p, 0, b, p), x1);  // t = -L21 x1
}

/// Backward-solves supernode s's panel rows: gathers x at the below rows
/// (already solved — they belong to ancestors) via the precomputed
/// memcpy runs into this supernode's arena slice, applies −L21ᵀ, and runs
/// the transposed panel TRSM.
void backward_supernode(ConstMatrixView panel, const SolveSchedule& sched,
                        SolveWorkspace& ws, MatrixView x, index_t s) {
  const SymbolicFactor& sym = *sched.sym;
  const index_t p = sym.sn_cols(s);
  const index_t b = sym.sn_below(s);
  const index_t w = x.cols;
  MatrixView x1 = x.block(sym.sn_start[s], 0, p, w);
  if (b > 0) {
    real_t* buf =
        ws.arena.data() + static_cast<std::size_t>(sym.sn_row_ptr[s]) * w;
    for (index_t c = 0; c < w; ++c) {
      real_t* tc = buf + static_cast<std::size_t>(c) * b;
      for (index_t k = sched.run_ptr[s]; k < sched.run_ptr[s + 1]; ++k) {
        const SolveSchedule::Run& run = sched.runs[k];
        std::memcpy(tc + run.dst, &x.at(run.row, c),
                    static_cast<std::size_t>(run.len) * sizeof(real_t));
      }
    }
    gemm_tn_update(x1, panel.block(p, 0, b, p),
                   ConstMatrixView{buf, b, w, b});  // x1 -= L21ᵀ t
  }
  trsm_left_lower_trans(panel.block(0, 0, p, p), x1);
}

/// Panels of a resident factor: views of its own storage, safe to read
/// from every worker of a threaded sweep.
struct ResidentPanels {
  const CholeskyFactor& factor;
  ConstMatrixView operator()(index_t s) const { return factor.panel(s); }
};

/// Panels of a spilled factor, each read back (digest-checked) into one
/// buffer sized for the largest panel. A view lives only until the next
/// read, so the sweeps that use it run serially, in file order forward
/// and in reverse backward.
class SpilledPanels {
 public:
  explicit SpilledPanels(const OocCholeskyFactor& factor) : factor_(factor) {
    const SymbolicFactor& sym = factor.symbolic();
    std::size_t largest = 0;
    for (index_t s = 0; s < sym.n_supernodes; ++s) {
      largest = std::max(largest, static_cast<std::size_t>(sym.front_order(s)) *
                                      static_cast<std::size_t>(sym.sn_cols(s)));
    }
    buf_.resize(largest);
  }
  ConstMatrixView operator()(index_t s) {
    const SymbolicFactor& sym = factor_.symbolic();
    const index_t f = sym.front_order(s);
    const MatrixView panel{buf_.data(), f, sym.sn_cols(s), f};
    factor_.read_panel(s, panel);
    return panel;
  }

 private:
  const OocCholeskyFactor& factor_;
  std::vector<real_t> buf_;
};

/// One threaded sweep over a single RHS block as a task graph on the
/// assembly tree; `step(s)` solves supernode s. A task solves the postorder
/// range [first, root] — a light subtree, or one top-of-tree supernode
/// (first == root) — tagged by its root and costed at its per-RHS flops, so
/// seal()'s priorities run the root chain first. Forward, a task waits for
/// its root's children outside the range; backward, for its root's parent.
/// Every forward pull source is a descendant and every backward gather row
/// belongs to an ancestor, so these edges order each read after its write.
/// Subtrees then the top ascending (reversed backward) is a topological
/// emission order for either sweep.
template <bool kForward, class Step>
void run_sweep_graph(const SolveSchedule& sched, ThreadPool& pool,
                     const Step& step) {
  const SymbolicFactor& sym = *sched.sym;
  const auto tag = [](index_t s) {
    return rt::make_tag(rt::TaskKind::kSolve, static_cast<std::uint64_t>(s));
  };
  rt::TaskGraph graph;
  const auto add = [&](index_t first, index_t root) {
    double cost = 0.0;
    for (index_t s = first; s <= root; ++s) {
      const double p = sym.sn_cols(s);
      cost += p * p + 2.0 * p * sym.sn_below(s);
    }
    graph.add_task(
        tag(root),
        [&step, first, root] {  // small enough for std::function's buffer
          if constexpr (kForward) {
            for (index_t s = first; s <= root; ++s) step(s);
          } else {
            for (index_t s = root; s >= first; --s) step(s);
          }
        },
        cost);
    if constexpr (kForward) {
      for (const index_t c : sym.children(root)) {
        if (c < first) graph.declare_deps(tag(root), {tag(c)});
      }
    } else if (sym.sn_parent[root] != kNone) {
      graph.declare_deps(tag(root), {tag(sym.sn_parent[root])});
    }
  };
  if constexpr (kForward) {
    for (index_t t = 0; t < sched.n_tasks(); ++t) {
      add(sched.task_first[t], sched.task_root[t]);
    }
    for (const index_t s : sched.top_sn) add(s, s);
  } else {
    for (auto s = sched.top_sn.rbegin(); s != sched.top_sn.rend(); ++s) {
      add(*s, *s);
    }
    for (index_t t = sched.n_tasks() - 1; t >= 0; --t) {
      add(sched.task_first[t], sched.task_root[t]);
    }
  }
  rt::run_graph(graph, pool);
}

/// One forward sweep over a single RHS block: the postorder serially, or
/// the sweep's task graph on a pool of more than one worker.
template <class Panels>
void forward_sweep(Panels& panel, const SolveSchedule& sched,
                   SolveWorkspace& ws, MatrixView x, ThreadPool* pool) {
  const index_t ns = sched.sym->n_supernodes;
  if (pool == nullptr || pool->size() <= 1) {
    for (index_t s = 0; s < ns; ++s) {
      forward_supernode(panel(s), sched, ws, x, s);
    }
    return;
  }
  run_sweep_graph<true>(sched, *pool, [&](index_t s) {
    forward_supernode(panel(s), sched, ws, x, s);
  });
}

/// One backward sweep over a single RHS block: the reverse postorder
/// serially, or the sweep's task graph (parents before children).
template <class Panels>
void backward_sweep(Panels& panel, const SolveSchedule& sched,
                    SolveWorkspace& ws, MatrixView x, ThreadPool* pool) {
  const index_t ns = sched.sym->n_supernodes;
  if (pool == nullptr || pool->size() <= 1) {
    for (index_t s = ns - 1; s >= 0; --s) {
      backward_supernode(panel(s), sched, ws, x, s);
    }
    return;
  }
  run_sweep_graph<false>(sched, *pool, [&](index_t s) {
    backward_supernode(panel(s), sched, ws, x, s);
  });
}

void check_engine_args(const SymbolicFactor& sym, const SolveSchedule& sched,
                       ConstMatrixView x) {
  PARFACT_CHECK(x.rows == sym.n);
  PARFACT_CHECK_MSG(sched.sym == &sym,
                    "SolveSchedule built for a different SymbolicFactor");
}

void diagonal_solve_block(std::span<const real_t> d, MatrixView x) {
  for (index_t c = 0; c < x.cols; ++c) {
    for (index_t i = 0; i < x.rows; ++i) x.at(i, c) /= d[i];
  }
}

/// Full forward/diagonal/backward per RHS block: each factor panel is
/// streamed exactly once per block in each sweep. `d` is the LDLᵀ
/// diagonal, empty for Cholesky.
template <class Panels>
void solve_blocks(Panels& panel, std::span<const real_t> d, MatrixView x,
                  const SolveSchedule& schedule, SolveWorkspace& workspace,
                  ThreadPool* pool) {
  for (index_t c0 = 0; c0 < x.cols; c0 += schedule.rhs_block) {
    const index_t w = std::min(schedule.rhs_block, x.cols - c0);
    workspace.ensure(schedule, w);
    MatrixView xb = x.block(0, c0, x.rows, w);
    forward_sweep(panel, schedule, workspace, xb, pool);
    if (!d.empty()) diagonal_solve_block(d, xb);
    backward_sweep(panel, schedule, workspace, xb, pool);
  }
}

}  // namespace

void solve_in_place(const CholeskyFactor& factor, MatrixView x,
                    const SolveSchedule& schedule, SolveWorkspace& workspace,
                    ThreadPool* pool) {
  check_engine_args(factor.symbolic(), schedule, x);
  ResidentPanels panel{factor};
  solve_blocks(panel, factor.diag(), x, schedule, workspace, pool);
}

void solve_in_place(const OocCholeskyFactor& factor, MatrixView x,
                    const SolveSchedule& schedule, SolveWorkspace& workspace) {
  check_engine_args(factor.symbolic(), schedule, x);
  SpilledPanels panel(factor);
  solve_blocks(panel, factor.diag(), x, schedule, workspace, nullptr);
}

void solve_in_place(const CholeskyFactor& factor, MatrixView x) {
  SolveScheduleOptions opts;
  opts.rhs_block = std::max<index_t>(x.cols, 1);
  SolveSchedule schedule(factor.symbolic(), opts);
  SolveWorkspace workspace;
  solve_in_place(factor, x, schedule, workspace, nullptr);
}

real_t relative_residual(const SparseMatrix& lower_a,
                         std::span<const real_t> x,
                         std::span<const real_t> b) {
  PARFACT_CHECK(static_cast<index_t>(x.size()) == lower_a.rows);
  PARFACT_CHECK(x.size() == b.size());
  std::vector<real_t> r(x.size());
  spmv_symmetric_lower(lower_a, x, r);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = b[i] - r[i];
    // norm_inf's std::max skips a NaN, so a non-finite answer would read as
    // an exact one: report it as infinitely wrong instead.
    if (!std::isfinite(r[i])) return std::numeric_limits<real_t>::infinity();
  }
  const real_t denom =
      norm_inf_symmetric(lower_a) * norm_inf(std::span<const real_t>(x)) +
      norm_inf(b);
  const real_t num = norm_inf(std::span<const real_t>(r));
  return denom > 0.0 ? num / denom : num;
}

RefinementResult refine(const SparseMatrix& lower_a, ConstMatrixView b,
                        MatrixView x, const SolveFn& solve, int passes,
                        std::optional<real_t> stop_at) {
  const index_t n = lower_a.rows;
  PARFACT_CHECK(b.rows == n && x.rows == n && b.cols == x.cols);
  const index_t nrhs = x.cols;
  // ‖A‖ is a loop invariant; a column of a column-major view is
  // contiguous, so each column's SpMV reads x and writes r in place.
  const real_t anorm = norm_inf_symmetric(lower_a);
  std::vector<real_t> r(static_cast<std::size_t>(n) * nrhs);
  const MatrixView rv{r.data(), n, nrhs, n};
  const auto residuals_into_r = [&]() {
    for (index_t c = 0; c < nrhs; ++c) {
      const std::span<real_t> rc{&rv.at(0, c), static_cast<std::size_t>(n)};
      spmv_symmetric_lower(lower_a, {&x.at(0, c), static_cast<std::size_t>(n)},
                           rc);
      for (index_t i = 0; i < n; ++i) rc[i] = b.at(i, c) - rc[i];
    }
  };
  // Worst ‖r‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞) over the columns; a NaN column makes
  // the worst NaN, which never passes a stop test.
  const auto worst_residual = [&]() {
    real_t worst = 0.0;
    for (index_t c = 0; c < nrhs; ++c) {
      real_t xmax = 0.0, bmax = 0.0, rmax = 0.0;
      for (index_t i = 0; i < n; ++i) {
        xmax = std::max(xmax, std::abs(x.at(i, c)));
        bmax = std::max(bmax, std::abs(b.at(i, c)));
        rmax = std::max(rmax, std::abs(rv.at(i, c)));
      }
      const real_t denom = anorm * xmax + bmax;
      const real_t res = denom > 0.0 ? rmax / denom : rmax;
      if (std::isnan(res) || res > worst) worst = res;
    }
    return worst;
  };
  RefinementResult result;
  for (; result.iterations < passes; ++result.iterations) {
    residuals_into_r();
    if (stop_at.has_value()) {
      result.residual = worst_residual();
      if (result.residual <= *stop_at) return result;
    }
    // r holds b − A x: solve A d = r, x += d.
    solve(rv);
    for (index_t c = 0; c < nrhs; ++c) {
      for (index_t i = 0; i < n; ++i) x.at(i, c) += rv.at(i, c);
    }
  }
  residuals_into_r();
  result.residual = worst_residual();
  return result;
}

}  // namespace parfact
