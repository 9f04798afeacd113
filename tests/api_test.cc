// Tests for the high-level Solver facade.
#include <vector>

#include <gtest/gtest.h>

#include "api/solver.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/prng.h"

namespace parfact {
namespace {

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

class OrderingModeTest
    : public ::testing::TestWithParam<SolverOptions::Ordering> {};

TEST_P(OrderingModeTest, SolvesInOriginalOrdering) {
  const SparseMatrix a = grid_laplacian_2d(18, 16, 5);
  SolverOptions opts;
  opts.ordering = GetParam();
  Solver solver(opts);
  solver.analyze(a);
  solver.factorize();
  const auto b = random_vector(a.rows, 5);
  const auto x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Orderings, OrderingModeTest,
    ::testing::Values(SolverOptions::Ordering::kNestedDissection,
                      SolverOptions::Ordering::kMinimumDegree,
                      SolverOptions::Ordering::kRcm,
                      SolverOptions::Ordering::kNatural));

TEST(Solver, NdReducesFillVsNatural) {
  const SparseMatrix a = grid_laplacian_3d(9, 9, 9, 7);
  SolverOptions nd;
  SolverOptions nat;
  nat.ordering = SolverOptions::Ordering::kNatural;
  Solver s1(nd), s2(nat);
  s1.analyze(a);
  s2.analyze(a);
  EXPECT_LT(s1.report().nnz_factor, s2.report().nnz_factor);
  EXPECT_LT(s1.report().factor_flops, s2.report().factor_flops);
}

TEST(Solver, ReportIsPopulated) {
  const SparseMatrix a = grid_laplacian_2d(12, 12, 5);
  Solver solver;
  solver.analyze(a);
  solver.factorize();
  const SolverReport& r = solver.report();
  EXPECT_EQ(r.n, 144);
  EXPECT_EQ(r.nnz_a, a.nnz());
  EXPECT_GE(r.nnz_factor, r.nnz_a);
  EXPECT_GT(r.factor_flops, 0);
  EXPECT_GT(r.n_supernodes, 0);
  EXPECT_GE(r.analyze_seconds, 0.0);
}

TEST(Solver, ThreadedFactorizationMatches) {
  // threads > 1 switches the numeric engine to the task DAG; the solutions
  // agree to the accuracy the conditioning allows (bit for bit, in fact:
  // serving_test's ThreadCountIdentityTest).
  const SparseMatrix a = elasticity_3d(3, 3, 2);
  SolverOptions serial;
  SolverOptions threaded;
  threaded.threads = 4;
  Solver s1(serial), s2(threaded);
  s1.analyze(a);
  s1.factorize();
  s2.analyze(a);
  s2.factorize();
  const auto b = random_vector(a.rows, 7);
  const auto x1 = s1.solve_refined(b);
  const auto x2 = s2.solve_refined(b);
  EXPECT_LT(s1.residual(x1, b), 1e-13);
  EXPECT_LT(s2.residual(x2, b), 1e-13);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(x1[i], x2[i], 1e-7);
  }
}

TEST(Solver, SolveMultiMatchesColumnwiseSolves) {
  const SparseMatrix a = grid_laplacian_3d(6, 5, 5, 7);
  Solver solver;
  solver.analyze(a);
  solver.factorize();
  const index_t n = a.rows;
  const index_t nrhs = 4;
  Prng rng(13);
  std::vector<real_t> b(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : b) v = rng.next_real(-1, 1);
  const auto x_block = solver.solve_multi(b, nrhs);
  for (index_t c = 0; c < nrhs; ++c) {
    const std::span<const real_t> bc(b.data() + static_cast<std::size_t>(c) * n,
                                     static_cast<std::size_t>(n));
    const auto xc = solver.solve(bc);
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x_block[static_cast<std::size_t>(c) * n + i], xc[i], 1e-13)
          << "rhs " << c;
    }
  }
}

TEST(Solver, SolveMultiRejectsBadShapes) {
  const SparseMatrix a = banded_spd(8, 1);
  Solver solver;
  solver.analyze(a);
  solver.factorize();
  std::vector<real_t> b(8, 1.0);
  EXPECT_THROW((void)solver.solve_multi(b, 2), Error);  // size mismatch
}

TEST(Solver, RefinementTightensResidual) {
  // An ill-conditioned banded matrix benefits from refinement.
  const SparseMatrix a = banded_spd(300, 6);
  Solver solver;
  solver.analyze(a);
  solver.factorize();
  const auto b = random_vector(a.rows, 11);
  const auto x = solver.solve_refined(b);
  EXPECT_LT(solver.residual(x, b), 1e-13);
}

TEST(Solver, PermutationIsConsistent) {
  const SparseMatrix a = random_spd(60, 3, 21);
  Solver solver;
  solver.analyze(a);
  const auto& perm = solver.permutation();
  EXPECT_TRUE(is_permutation(perm));
  // symbolic().a must equal P A Pᵀ under `perm`.
  const SparseMatrix expect =
      lower_triangle(permute_symmetric(symmetrize_full(a), perm));
  EXPECT_EQ(solver.symbolic().a.col_ptr, expect.col_ptr);
  EXPECT_EQ(solver.symbolic().a.row_ind, expect.row_ind);
}

TEST(Solver, LifecycleErrors) {
  Solver solver;
  EXPECT_THROW(solver.factorize(), Error);
  const SparseMatrix a = banded_spd(10, 1);
  solver.analyze(a);
  std::vector<real_t> b(10, 1.0);
  EXPECT_THROW((void)solver.solve(b), Error);
  solver.factorize();
  EXPECT_NO_THROW((void)solver.solve(b));
}

TEST(Solver, ReanalyzeResetsFactor) {
  const SparseMatrix a = banded_spd(20, 2);
  Solver solver;
  solver.analyze(a);
  solver.factorize();
  solver.analyze(a);  // invalidates the factor
  std::vector<real_t> b(20, 1.0);
  EXPECT_THROW((void)solver.solve(b), Error);
}

TEST(Solver, WholeSuiteEndToEnd) {
  for (const auto& prob : test_suite(0.1)) {
    Solver solver;
    solver.analyze(prob.lower);
    solver.factorize();
    const auto b = random_vector(prob.lower.rows, 3);
    const auto x = solver.solve_refined(b);
    EXPECT_LT(solver.residual(x, b), 1e-12) << prob.name;
  }
}

}  // namespace
}  // namespace parfact
