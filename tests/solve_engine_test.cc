// Property tests for the schedule-driven solve engine: schedule structure
// invariants, bitwise identity of threaded vs serial sweeps, identity of the
// engine with the push-based reference sweep, batch-vs-loop identity,
// blocked refinement, and the residual's non-finite guard.
#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "api/solver.h"
#include "dense/kernels.h"
#include "mf/multifrontal.h"
#include "solve/solve.h"
#include "solve/solve_schedule.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/prng.h"
#include "support/thread_pool.h"

namespace parfact {
namespace {

std::vector<real_t> random_rhs(index_t n, index_t nrhs, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : b) v = rng.next_real(-1, 1);
  return b;
}

/// Push-based reference sweep: the textbook scatter formulation the engine
/// replaced. Full-width (one RHS block), serial postorder.
void reference_solve(const CholeskyFactor& factor, MatrixView x) {
  const SymbolicFactor& sym = factor.symbolic();
  std::vector<real_t> gathered;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t p = sym.sn_cols(s);
    const index_t b = sym.sn_below(s);
    const ConstMatrixView panel = factor.panel(s);
    MatrixView x1 = x.block(sym.sn_start[s], 0, p, x.cols);
    trsm_left_lower(panel.block(0, 0, p, p), x1);
    if (b == 0) continue;
    gathered.assign(static_cast<std::size_t>(b) * x.cols, 0.0);
    MatrixView t{gathered.data(), b, x.cols, b};
    gemm_nn_update(t, panel.block(p, 0, b, p), x1);  // t = -L21 x1
    const auto rows = sym.below_rows(s);
    for (index_t c = 0; c < x.cols; ++c) {
      for (index_t i = 0; i < b; ++i) x.at(rows[i], c) += t.at(i, c);
    }
  }
  if (factor.is_ldlt()) {
    const std::span<const real_t> d = factor.diag();
    for (index_t c = 0; c < x.cols; ++c) {
      for (index_t i = 0; i < x.rows; ++i) x.at(i, c) /= d[i];
    }
  }
  for (index_t s = sym.n_supernodes - 1; s >= 0; --s) {
    const index_t p = sym.sn_cols(s);
    const index_t b = sym.sn_below(s);
    const ConstMatrixView panel = factor.panel(s);
    MatrixView x1 = x.block(sym.sn_start[s], 0, p, x.cols);
    if (b > 0) {
      const auto rows = sym.below_rows(s);
      gathered.resize(static_cast<std::size_t>(b) * x.cols);
      MatrixView t{gathered.data(), b, x.cols, b};
      for (index_t c = 0; c < x.cols; ++c) {
        for (index_t i = 0; i < b; ++i) t.at(i, c) = x.at(rows[i], c);
      }
      gemm_tn_update(x1, panel.block(p, 0, b, p), t);  // x1 -= L21ᵀ t
    }
    trsm_left_lower_trans(panel.block(0, 0, p, p), x1);
  }
}

struct EngineCase {
  FactorKind kind;
  index_t nrhs;
  int threads;
};

SparseMatrix test_matrix(FactorKind kind) {
  return kind == FactorKind::kCholesky ? grid_laplacian_2d(17, 15)
                                       : saddle_point_kkt(140, 60, 4, 5);
}

class SolveEngineTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(SolveEngineTest, ThreadedBitwiseEqualsSerial) {
  const auto [kind, nrhs, threads] = GetParam();
  const SparseMatrix a = test_matrix(kind);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor factor = multifrontal_factor(sym, nullptr, kind);

  // A small RHS block so multi-RHS cases exercise the blocked loop, and a
  // small task threshold so the tree actually splits into tasks + levels.
  SolveScheduleOptions opts;
  opts.rhs_block = 7;
  opts.task_work = 2'000;
  const SolveSchedule schedule(sym, opts);
  SolveWorkspace workspace;

  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 21);
  std::vector<real_t> x_serial = b;
  solve_in_place(factor, MatrixView{x_serial.data(), sym.n, nrhs, sym.n},
                 schedule, workspace);

  ThreadPool pool(threads);
  std::vector<real_t> x_par = b;
  solve_in_place(factor, MatrixView{x_par.data(), sym.n, nrhs, sym.n},
                 schedule, workspace, &pool);

  for (std::size_t i = 0; i < x_serial.size(); ++i) {
    ASSERT_EQ(x_par[i], x_serial[i]) << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SolveEngineTest,
    ::testing::Values(EngineCase{FactorKind::kCholesky, 1, 2},
                      EngineCase{FactorKind::kCholesky, 3, 8},
                      EngineCase{FactorKind::kCholesky, 16, 2},
                      EngineCase{FactorKind::kCholesky, 16, 8},
                      EngineCase{FactorKind::kLdlt, 1, 8},
                      EngineCase{FactorKind::kLdlt, 3, 2},
                      EngineCase{FactorKind::kLdlt, 16, 8},
                      EngineCase{FactorKind::kCholesky, 5, 1},
                      EngineCase{FactorKind::kLdlt, 5, 1}));

TEST(SolveSchedule, PartitionsAndPlansAreExact) {
  const SparseMatrix a = grid_laplacian_2d(19, 18, 9);
  const SymbolicFactor sym = analyze(a);
  // Low enough that the tree splits into many subtree tasks plus several
  // top levels on this mesh.
  SolveScheduleOptions opts;
  opts.task_work = 300;
  const SolveSchedule schedule(sym, opts);

  // Tasks are contiguous ranges; tasks + top supernodes cover every
  // supernode exactly once.
  std::vector<int> seen(static_cast<std::size_t>(sym.n_supernodes), 0);
  for (index_t t = 0; t < schedule.n_tasks(); ++t) {
    ASSERT_LE(schedule.task_first[t], schedule.task_root[t]);
    for (index_t s = schedule.task_first[t]; s <= schedule.task_root[t]; ++s) {
      seen[s] += 1;
    }
  }
  ASSERT_GT(schedule.top_sn.size(), 1u);  // this tree is deep enough to split
  ASSERT_TRUE(std::is_sorted(schedule.top_sn.begin(), schedule.top_sn.end()));
  std::vector<char> top(static_cast<std::size_t>(sym.n_supernodes), 0);
  for (const index_t s : schedule.top_sn) {
    seen[s] += 1;
    top[s] = 1;
  }
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    EXPECT_EQ(seen[s], 1) << "supernode " << s;
  }

  // The sweep graph's edges are the tree's: a task root's parent and a top
  // supernode's parent are top supernodes, so every edge joins two tasks.
  const auto parent_is_top = [&](index_t s) {
    const index_t parent = sym.sn_parent[s];
    return parent == kNone || top[parent] == 1;
  };
  for (const index_t r : schedule.task_root) {
    EXPECT_TRUE(parent_is_top(r)) << "task root " << r;
  }
  for (const index_t s : schedule.top_sn) {
    EXPECT_TRUE(parent_is_top(s)) << "top supernode " << s;
  }

  // Forward pull plan: every below entry of every supernode is pulled by
  // exactly one ancestor, into that ancestor's panel rows, ascending in
  // source supernode.
  std::vector<int> pulled(sym.sn_rows.size(), 0);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    index_t prev_src = -1;
    for (index_t k = schedule.in_ptr[s]; k < schedule.in_ptr[s + 1]; ++k) {
      const auto& inc = schedule.in[k];
      ASSERT_GT(inc.hi, inc.lo);
      ASSERT_GE(inc.src, prev_src);
      prev_src = inc.src;
      for (index_t g = inc.lo; g < inc.hi; ++g) {
        pulled[g] += 1;
        const index_t row = sym.sn_rows[g];
        ASSERT_GE(row, sym.sn_start[s]);
        ASSERT_LT(row, sym.sn_start[s + 1]);
        ASSERT_EQ(sym.sn_of[row], s);
        // The segment really belongs to the claimed source supernode.
        ASSERT_GE(g, sym.sn_row_ptr[inc.src]);
        ASSERT_LT(g, sym.sn_row_ptr[inc.src + 1]);
      }
    }
  }
  for (std::size_t g = 0; g < pulled.size(); ++g) {
    EXPECT_EQ(pulled[g], 1) << "below entry " << g;
  }

  // Backward gather runs reconstruct below_rows exactly.
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    std::vector<index_t> rebuilt(static_cast<std::size_t>(sym.sn_below(s)),
                                 kNone);
    for (index_t k = schedule.run_ptr[s]; k < schedule.run_ptr[s + 1]; ++k) {
      const auto& run = schedule.runs[k];
      for (index_t i = 0; i < run.len; ++i) {
        ASSERT_LT(run.dst + i, sym.sn_below(s));
        rebuilt[run.dst + i] = run.row + i;
      }
    }
    const auto rows = sym.below_rows(s);
    for (index_t i = 0; i < sym.sn_below(s); ++i) {
      ASSERT_EQ(rebuilt[i], rows[i]) << "sn " << s << " row " << i;
    }
  }
}

TEST(SolveEngine, MatchesPushReferenceBitwise) {
  for (const FactorKind kind : {FactorKind::kCholesky, FactorKind::kLdlt}) {
    const SparseMatrix a = test_matrix(kind);
    const SymbolicFactor sym = analyze(a);
    const CholeskyFactor factor = multifrontal_factor(sym, nullptr, kind);
    const index_t nrhs = 4;
    const std::vector<real_t> b = random_rhs(sym.n, nrhs, 3);

    std::vector<real_t> x_ref = b;
    reference_solve(factor, MatrixView{x_ref.data(), sym.n, nrhs, sym.n});

    // Full-width block: the engine then runs the same kernel shapes in the
    // same order as the push reference, so the identity is bitwise.
    SolveScheduleOptions opts;
    opts.rhs_block = nrhs;
    const SolveSchedule schedule(sym, opts);
    SolveWorkspace workspace;
    std::vector<real_t> x_eng = b;
    solve_in_place(factor, MatrixView{x_eng.data(), sym.n, nrhs, sym.n},
                   schedule, workspace);
    for (std::size_t i = 0; i < x_ref.size(); ++i) {
      ASSERT_EQ(x_eng[i], x_ref[i]) << "entry " << i;
    }

    // Legacy wrapper == engine with a transient full-width schedule.
    std::vector<real_t> x_legacy = b;
    solve_in_place(factor, MatrixView{x_legacy.data(), sym.n, nrhs, sym.n});
    for (std::size_t i = 0; i < x_ref.size(); ++i) {
      ASSERT_EQ(x_legacy[i], x_ref[i]) << "entry " << i;
    }
  }
}

TEST(SolveEngine, WorkspaceReuseIsIdempotent) {
  const SparseMatrix a = grid_laplacian_3d(7, 6, 5);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor factor = multifrontal_factor(sym);
  SolveScheduleOptions opts;
  opts.rhs_block = 3;
  const SolveSchedule schedule(sym, opts);
  SolveWorkspace workspace;

  const std::vector<real_t> b = random_rhs(sym.n, 8, 13);
  std::vector<real_t> x1 = b;
  solve_in_place(factor, MatrixView{x1.data(), sym.n, 8, sym.n}, schedule,
                 workspace);
  // Second solve reuses the (dirty) arena; contents must not leak through.
  std::vector<real_t> x2 = b;
  solve_in_place(factor, MatrixView{x2.data(), sym.n, 8, sym.n}, schedule,
                 workspace);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    ASSERT_EQ(x2[i], x1[i]) << "entry " << i;
  }
}

TEST(SolveEngine, ScheduleRefinementConverges) {
  const SparseMatrix a = elasticity_3d(4, 4, 3);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor factor = multifrontal_factor(sym);
  const SolveSchedule schedule(sym);
  SolveWorkspace workspace;
  const std::vector<real_t> b = random_rhs(sym.n, 1, 17);
  std::vector<real_t> x = b;
  solve_in_place(factor, MatrixView{x.data(), sym.n, 1, sym.n}, schedule,
                 workspace);
  const RefinementResult r = refine(
      sym.a, ConstMatrixView{b.data(), sym.n, 1, sym.n},
      MatrixView{x.data(), sym.n, 1, sym.n},
      [&](MatrixView v) { solve_in_place(factor, v, schedule, workspace); },
      /*passes=*/5, 1e-14);
  EXPECT_LE(r.residual, 1e-13);
}

TEST(SolveEngine, WidthOneBlockEqualsColumnLoop) {
  const SparseMatrix a = grid_laplacian_2d(16, 14);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor factor = multifrontal_factor(sym);
  SolveScheduleOptions opts;
  opts.rhs_block = 1;
  const SolveSchedule schedule(sym, opts);
  SolveWorkspace workspace;
  const index_t nrhs = 5;
  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 31);
  std::vector<real_t> xb = b;
  solve_in_place(factor, MatrixView{xb.data(), sym.n, nrhs, sym.n}, schedule,
                 workspace);
  const std::size_t n = static_cast<std::size_t>(sym.n);
  for (index_t r = 0; r < nrhs; ++r) {
    std::vector<real_t> xr(b.begin() + static_cast<std::ptrdiff_t>(r * n),
                           b.begin() + static_cast<std::ptrdiff_t>((r + 1) * n));
    solve_in_place(factor, MatrixView{xr.data(), sym.n, 1, sym.n}, schedule,
                   workspace);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(xb[static_cast<std::size_t>(r) * n + i], xr[i])
          << "rhs " << r << " entry " << i;
    }
  }
}

TEST(SolveEngine, ZeroRefinementPassesOnlyMeasure) {
  const SparseMatrix a = grid_laplacian_2d(16, 14);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor factor = multifrontal_factor(sym);
  const SolveSchedule schedule(sym);
  SolveWorkspace workspace;
  const index_t nrhs = 3;
  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 29);
  std::vector<real_t> x = b;
  solve_in_place(factor, MatrixView{x.data(), sym.n, nrhs, sym.n}, schedule,
                 workspace);
  const std::vector<real_t> solved = x;
  int solves = 0;
  const RefinementResult r =
      refine(sym.a, ConstMatrixView{b.data(), sym.n, nrhs, sym.n},
             MatrixView{x.data(), sym.n, nrhs, sym.n},
             [&](MatrixView) { ++solves; }, /*passes=*/0, 1e-14);
  EXPECT_EQ(solves, 0);
  EXPECT_EQ(r.iterations, 0);
  ASSERT_EQ(std::memcmp(x.data(), solved.data(), x.size() * sizeof(real_t)),
            0)
      << "passes = 0 moved x";
  // The reported residual is the worst column's relative residual.
  const std::size_t n = static_cast<std::size_t>(sym.n);
  real_t worst = 0.0;
  for (index_t c = 0; c < nrhs; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * n;
    worst = std::max(worst, relative_residual(sym.a, {x.data() + off, n},
                                              {b.data() + off, n}));
  }
  EXPECT_EQ(r.residual, worst);
  EXPECT_GT(r.residual, 0.0);
}

// --- Solver-facade contracts. ---

SparseMatrix solver_matrix() { return grid_laplacian_2d(16, 14); }

TEST(SolverBatch, SolveIsSolveMultiWithOneColumn) {
  Solver solver;
  const SparseMatrix a = solver_matrix();
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const std::vector<real_t> b = random_rhs(a.rows, 1, 23);
  const std::vector<real_t> x1 = solver.solve(b);
  const std::vector<real_t> x2 = solver.solve_multi(b, 1);
  ASSERT_EQ(x1.size(), x2.size());
  for (std::size_t i = 0; i < x1.size(); ++i) {
    ASSERT_EQ(x1[i], x2[i]) << "entry " << i;
  }
}

TEST(SolverBatch, RefinedBlockSolvesEveryColumn) {
  Solver solver;
  const SparseMatrix a = solver_matrix();
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const index_t nrhs = 40;  // blocks of 32, 8
  const std::vector<real_t> b = random_rhs(a.rows, nrhs, 37);
  const std::vector<real_t> x = solver.solve_refined(b, nrhs);
  ASSERT_EQ(x.size(), b.size());
  const std::size_t n = static_cast<std::size_t>(a.rows);
  for (index_t r = 0; r < nrhs; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * n;
    EXPECT_LE(solver.residual({x.data() + off, n}, {b.data() + off, n}),
              1e-12)
        << "rhs " << r;
  }
}

TEST(RelativeResidual, NonFiniteAnswerIsInfinitelyWrong) {
  // norm_inf skips NaN, so without the finiteness check an all-NaN answer
  // read as residual 0 and an answer holding one inf as NaN.
  const SparseMatrix a = solver_matrix();
  const std::vector<real_t> b = random_rhs(a.rows, 1, 43);
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const std::vector<real_t> all_nan(b.size(),
                                    std::numeric_limits<real_t>::quiet_NaN());
  EXPECT_EQ(relative_residual(a, all_nan, b), inf);
  std::vector<real_t> one_inf(b.size(), 0.0);
  one_inf[b.size() / 2] = inf;
  EXPECT_EQ(relative_residual(a, one_inf, b), inf);
}

TEST(SolverBatch, ThreadedSolverBitwiseEqualsSerialSolver) {
  const SparseMatrix a = grid_laplacian_2d(21, 19, 9);
  const SolverOptions serial_opts;
  SolverOptions par_opts;
  par_opts.threads = 4;
  Solver serial(serial_opts);
  Solver parallel(par_opts);
  serial.analyze(a);
  parallel.analyze(a);
  ASSERT_TRUE(serial.factorize().ok());
  ASSERT_TRUE(parallel.factorize().ok());
  const index_t nrhs = 9;
  const std::vector<real_t> b = random_rhs(a.rows, nrhs, 41);
  const std::vector<real_t> xs = serial.solve_multi(b, nrhs);
  const std::vector<real_t> xp = parallel.solve_multi(b, nrhs);
  ASSERT_EQ(xs.size(), xp.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(xp[i], xs[i]) << "entry " << i;
  }
}

}  // namespace
}  // namespace parfact
