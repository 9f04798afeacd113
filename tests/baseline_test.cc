// Tests for the alternative engines and baselines: left-looking supernodal
// factorization, IC(0), and (preconditioned) conjugate gradients.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "api/solver.h"
#include "baseline/iccg.h"
#include "baseline/left_looking.h"
#include "baseline/simplicial.h"
#include "mf/multifrontal.h"
#include "solve/solve.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/prng.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {
namespace {

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

// --- Left-looking supernodal -------------------------------------------------

class LeftLookingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeftLookingTest, MatchesMultifrontalOnRandomSpd) {
  const SparseMatrix a = random_spd(120, 4, GetParam());
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor mf = multifrontal_factor(sym);
  const CholeskyFactor ll = left_looking_factor(sym);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pm = mf.panel(s);
    const ConstMatrixView pl = ll.panel(s);
    for (index_t j = 0; j < pm.cols; ++j) {
      for (index_t i = j; i < pm.rows; ++i) {
        ASSERT_NEAR(pm.at(i, j), pl.at(i, j), 1e-10)
            << "sn " << s << " (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeftLookingTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(LeftLooking, SolvesSuiteMatrices) {
  for (const auto& prob : test_suite(0.1)) {
    const SymbolicFactor sym = analyze_nested_dissection(prob.lower);
    FactorStats stats;
    const CholeskyFactor f = left_looking_factor(sym, &stats);
    EXPECT_EQ(stats.peak_update_bytes, 0u);  // no update stack by design
    const auto b = random_vector(sym.n, 3);
    std::vector<real_t> x = b;
    solve_in_place(f, MatrixView{x.data(), sym.n, 1, sym.n});
    EXPECT_LT(relative_residual(sym.a, x, b), 1e-12) << prob.name;
  }
}

TEST(LeftLooking, ThrowsOnIndefinite) {
  TripletBuilder b(3, 3);
  for (index_t j = 0; j < 3; ++j) b.add(j, j, 1.0);
  b.add(2, 1, 4.0);
  const SymbolicFactor sym = analyze(b.build());
  EXPECT_THROW(left_looking_factor(sym), Error);
}

TEST(LeftLooking, HandlesAmalgamatedAndPlainSupernodes) {
  const SparseMatrix a = grid_laplacian_3d(6, 6, 6, 7);
  AmalgamationOptions off;
  off.enable = false;
  for (const auto& sym : {analyze(a), analyze(a, off)}) {
    const CholeskyFactor mf = multifrontal_factor(sym);
    const CholeskyFactor ll = left_looking_factor(sym);
    for (index_t j = 0; j < sym.n; ++j) {
      ASSERT_NEAR(mf.entry(j, j), ll.entry(j, j), 1e-11);
    }
  }
}

// --- IC(0) -------------------------------------------------------------------

TEST(Ic0, PatternPreservedAndExactOnNoFillMatrix) {
  // A tridiagonal matrix factors with zero fill, so IC(0) == full Cholesky.
  const SparseMatrix a = banded_spd(25, 1);
  const SparseMatrix l_ic = incomplete_cholesky0(a);
  const SparseMatrix l_full = simplicial_cholesky(a);
  ASSERT_EQ(l_ic.col_ptr, l_full.col_ptr);
  ASSERT_EQ(l_ic.row_ind, l_full.row_ind);
  for (std::size_t k = 0; k < l_ic.values.size(); ++k) {
    EXPECT_NEAR(l_ic.values[k], l_full.values[k], 1e-13);
  }
}

TEST(Ic0, KeepsInputPattern) {
  const SparseMatrix a = grid_laplacian_2d(10, 10, 5);
  const SparseMatrix l = incomplete_cholesky0(a);
  EXPECT_EQ(l.col_ptr, a.col_ptr);
  EXPECT_EQ(l.row_ind, a.row_ind);
}

TEST(Ic0, IsAReasonableApproximation) {
  // ‖A - L Lᵀ‖_F must be small relative to ‖A‖_F on a Laplacian (the error
  // lives only in the dropped fill positions).
  const SparseMatrix a = grid_laplacian_2d(14, 14, 5);
  const SparseMatrix l = incomplete_cholesky0(a);
  // Compute L Lᵀ restricted error via matvec probes.
  Prng rng(4);
  real_t err = 0.0;
  for (int probe = 0; probe < 5; ++probe) {
    std::vector<real_t> v(static_cast<std::size_t>(a.rows));
    for (auto& x : v) x = rng.next_real(-1, 1);
    // y1 = A v; y2 = L (Lᵀ v).
    std::vector<real_t> y1(v.size());
    spmv_symmetric_lower(a, v, y1);
    std::vector<real_t> y2 = v;
    // Lᵀ v then L *: use transpose trick with the CSC lower factor.
    std::vector<real_t> t(v.size(), 0.0);
    for (index_t j = 0; j < l.cols; ++j) {
      real_t s = 0.0;
      for (index_t p = l.col_ptr[j]; p < l.col_ptr[j + 1]; ++p) {
        s += l.values[p] * v[l.row_ind[p]];
      }
      t[j] = s;
    }
    std::fill(y2.begin(), y2.end(), 0.0);
    for (index_t j = 0; j < l.cols; ++j) {
      for (index_t p = l.col_ptr[j]; p < l.col_ptr[j + 1]; ++p) {
        y2[l.row_ind[p]] += l.values[p] * t[j];
      }
    }
    for (std::size_t i = 0; i < v.size(); ++i) {
      err = std::max(err, std::abs(y1[i] - y2[i]));
    }
  }
  EXPECT_LT(err, 1.0);  // A has entries O(4); dropped fill is a fraction
  EXPECT_GT(err, 1e-8);  // but IC(0) is genuinely incomplete here
}

// --- CG ----------------------------------------------------------------------

TEST(Cg, ConvergesOnLaplacian) {
  const SparseMatrix a = grid_laplacian_2d(20, 20, 5);
  const auto b = random_vector(a.rows, 5);
  std::vector<real_t> x(b.size(), 0.0);
  const CgResult r = conjugate_gradient(a, b, x, nullptr, 2000, 1e-10);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(relative_residual(a, x, b), 1e-9);
}

TEST(Cg, PreconditioningCutsIterations) {
  const SparseMatrix a = grid_laplacian_2d(30, 30, 5);
  const auto b = random_vector(a.rows, 6);
  std::vector<real_t> x0(b.size(), 0.0);
  std::vector<real_t> x1(b.size(), 0.0);
  const CgResult plain = conjugate_gradient(a, b, x0, nullptr, 5000, 1e-10);
  const SparseMatrix ic = incomplete_cholesky0(a);
  const CgResult pre = conjugate_gradient(a, b, x1, &ic, 5000, 1e-10);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations / 2);
}

TEST(Cg, MatchesDirectSolve) {
  const SparseMatrix a = grid_laplacian_3d(6, 6, 6, 7);
  const auto b = random_vector(a.rows, 7);
  std::vector<real_t> x_cg(b.size(), 0.0);
  const SparseMatrix ic = incomplete_cholesky0(a);
  (void)conjugate_gradient(a, b, x_cg, &ic, 2000, 1e-12);
  Solver solver;
  solver.analyze(a);
  solver.factorize();
  const auto x_direct = solver.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(x_cg[i], x_direct[i], 1e-7);
  }
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const SparseMatrix a = banded_spd(12, 2);
  std::vector<real_t> b(12, 0.0);
  std::vector<real_t> x(12, 3.0);
  const CgResult r = conjugate_gradient(a, b, x);
  EXPECT_TRUE(r.converged);
  for (real_t v : x) EXPECT_EQ(v, 0.0);
}

TEST(Cg, RespectsIterationCap) {
  const SparseMatrix a = grid_laplacian_2d(40, 40, 5);
  const auto b = random_vector(a.rows, 8);
  std::vector<real_t> x(b.size(), 0.0);
  const CgResult r = conjugate_gradient(a, b, x, nullptr, 3, 1e-14);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 3);
}

}  // namespace
}  // namespace parfact
