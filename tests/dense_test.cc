// Tests for the dense kernels: POTRF / TRSM / SYRK / GEMM against naive
// reference implementations, across a sweep of shapes.
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dense/kernels.h"
#include "dense/matrix_view.h"
#include "support/prng.h"

namespace parfact {
namespace {

/// Owning column-major matrix for tests.
struct Dense {
  index_t rows, cols;
  std::vector<real_t> v;
  Dense(index_t r, index_t c) : rows(r), cols(c),
      v(static_cast<std::size_t>(r) * c, 0.0) {}
  MatrixView view() { return {v.data(), rows, cols, rows}; }
  ConstMatrixView cview() const { return {v.data(), rows, cols, rows}; }
  real_t& at(index_t i, index_t j) {
    return v[static_cast<std::size_t>(j) * rows + i];
  }
  real_t at(index_t i, index_t j) const {
    return v[static_cast<std::size_t>(j) * rows + i];
  }
};

Dense random_matrix(index_t r, index_t c, std::uint64_t seed) {
  Dense d(r, c);
  Prng rng(seed);
  for (auto& x : d.v) x = rng.next_real(-1, 1);
  return d;
}

/// SPD matrix: R Rᵀ + n I for random R.
Dense random_spd_dense(index_t n, std::uint64_t seed) {
  const Dense r = random_matrix(n, n, seed);
  Dense a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = (i == j) ? static_cast<real_t>(n) : 0.0;
      for (index_t k = 0; k < n; ++k) s += r.at(i, k) * r.at(j, k);
      a.at(i, j) = s;
    }
  }
  return a;
}

class PotrfTest : public ::testing::TestWithParam<index_t> {};

TEST_P(PotrfTest, ReconstructsMatrix) {
  const index_t n = GetParam();
  Dense a = random_spd_dense(n, 100 + static_cast<std::uint64_t>(n));
  const Dense a0 = a;
  ASSERT_EQ(potrf_lower(a.view()), kNone);
  // Check L Lᵀ == A0 on the lower triangle.
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      real_t s = 0.0;
      for (index_t k = 0; k <= j; ++k) s += a.at(i, k) * a.at(j, k);
      EXPECT_NEAR(s, a0.at(i, j), 1e-9 * n) << i << "," << j;
    }
  }
}

// 32 and 33 straddle kPotrfUnblocked, 128 and 129 kPotrfBlock.
INSTANTIATE_TEST_SUITE_P(Sizes, PotrfTest,
                         ::testing::Values(1, 2, 3, 7, 16, 32, 33, 64, 65,
                                           100, 128, 129, 150, 260));

TEST(Potrf, DetectsNonSpd) {
  Dense a(3, 3);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = -2.0;  // negative pivot at column 1
  a.at(2, 2) = 1.0;
  EXPECT_EQ(potrf_lower(a.view()), 1);
}

TEST(Potrf, DetectsNonSpdInLaterBlock) {
  // Make an SPD matrix, then poison a diagonal entry beyond the first block.
  const index_t n = 90;
  Dense a = random_spd_dense(n, 7);
  a.at(80, 80) = -1e6;
  const index_t info = potrf_lower(a.view());
  EXPECT_NE(info, kNone);
  EXPECT_GE(info, 64);  // failure is inside the second block
}

TEST(Trsm, RightLowerTransSolves) {
  // Orders of the unblocked kernel at row counts that leave every kind of
  // last row block: whole, whole strips only, and a zero-padded strip.
  for (const auto& [m, n] : {std::pair<index_t, index_t>{13, 20},
                             {301, 7}, {301, 64}, {64, 32}, {8, 16},
                             {37, 5}}) {
    Dense l = random_matrix(n, n, 5);
    for (index_t j = 0; j < n; ++j) {
      l.at(j, j) = 2.0 + std::abs(l.at(j, j));
      for (index_t i = 0; i < j; ++i) l.at(i, j) = 0.0;
    }
    const Dense b0 = random_matrix(m, n, 6);
    Dense b = b0;
    trsm_right_lower_trans(l.cview(), b.view());
    // Check B_new * Lᵀ == B0: (X Lᵀ)(i,j) = sum_{k<=j} X(i,k) L(j,k).
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < n; ++j) {
        real_t s = 0.0;
        for (index_t k = 0; k <= j; ++k) s += b.at(i, k) * l.at(j, k);
        ASSERT_NEAR(s, b0.at(i, j), 1e-10)
            << m << "x" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(Trsm, LeftLowerForwardAndBackwardAreInverses) {
  const index_t n = 25, rhs = 4;
  Dense l = random_matrix(n, n, 8);
  for (index_t j = 0; j < n; ++j) {
    l.at(j, j) = 1.5 + std::abs(l.at(j, j));
    for (index_t i = 0; i < j; ++i) l.at(i, j) = 0.0;
  }
  const Dense x0 = random_matrix(n, rhs, 9);
  Dense x = x0;
  trsm_left_lower(l.cview(), x.view());
  // L * x == x0.
  for (index_t c = 0; c < rhs; ++c) {
    for (index_t i = 0; i < n; ++i) {
      real_t s = 0.0;
      for (index_t k = 0; k <= i; ++k) s += l.at(i, k) * x.at(k, c);
      EXPECT_NEAR(s, x0.at(i, c), 1e-10);
    }
  }
  // Backward of forward with Lᵀ then L recovers identity behaviour:
  Dense y = x0;
  trsm_left_lower(l.cview(), y.view());
  trsm_left_lower_trans(l.cview(), y.view());
  // y == (L Lᵀ)⁻¹ x0; check L Lᵀ y == x0.
  for (index_t c = 0; c < rhs; ++c) {
    std::vector<real_t> t(static_cast<std::size_t>(n), 0.0);
    for (index_t i = 0; i < n; ++i) {
      for (index_t k = i; k < n; ++k) t[i] += l.at(k, i) * y.at(k, c);
    }
    for (index_t i = 0; i < n; ++i) {
      real_t s = 0.0;
      for (index_t k = 0; k <= i; ++k) s += l.at(i, k) * t[k];
      EXPECT_NEAR(s, x0.at(i, c), 1e-9);
    }
  }
}

struct GemmShape {
  index_t m, n, k;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, NtMatchesReference) {
  const auto [m, n, k] = GetParam();
  Dense c = random_matrix(m, n, 11);
  const Dense c0 = c;
  const Dense a = random_matrix(m, k, 12);
  const Dense b = random_matrix(n, k, 13);
  gemm_nt_update(c.view(), a.cview(), b.cview());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = c0.at(i, j);
      for (index_t kk = 0; kk < k; ++kk) s -= a.at(i, kk) * b.at(j, kk);
      EXPECT_NEAR(c.at(i, j), s, 1e-11 * (k + 1));
    }
  }
}

TEST_P(GemmTest, NnMatchesReference) {
  const auto [m, n, k] = GetParam();
  Dense c = random_matrix(m, n, 21);
  const Dense c0 = c;
  const Dense a = random_matrix(m, k, 22);
  const Dense b = random_matrix(k, n, 23);
  gemm_nn_update(c.view(), a.cview(), b.cview());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = c0.at(i, j);
      for (index_t kk = 0; kk < k; ++kk) s -= a.at(i, kk) * b.at(kk, j);
      EXPECT_NEAR(c.at(i, j), s, 1e-11 * (k + 1));
    }
  }
}

TEST_P(GemmTest, TnMatchesReference) {
  const auto [m, n, k] = GetParam();
  Dense c = random_matrix(m, n, 31);
  const Dense c0 = c;
  const Dense a = random_matrix(k, m, 32);
  const Dense b = random_matrix(k, n, 33);
  gemm_tn_update(c.view(), a.cview(), b.cview());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = c0.at(i, j);
      for (index_t kk = 0; kk < k; ++kk) s -= a.at(kk, i) * b.at(kk, j);
      EXPECT_NEAR(c.at(i, j), s, 1e-11 * (k + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{5, 3, 2},
                      GemmShape{17, 9, 33}, GemmShape{64, 64, 64},
                      GemmShape{65, 70, 130}, GemmShape{1, 40, 8},
                      GemmShape{40, 1, 8}));

// Shapes chosen to hit the packed engine's blocking edges: primes not
// divisible by MR/NR/MC/KC, exact multiples, a KC boundary straddle, and
// degenerate tall/flat panels. The small shapes above stay on the fallback
// loops; everything here goes through pack + micro-kernel dispatch.
INSTANTIATE_TEST_SUITE_P(
    EngineShapes, GemmTest,
    ::testing::Values(GemmShape{257, 263, 300}, GemmShape{96, 96, 256},
                      GemmShape{97, 101, 257}, GemmShape{8, 6, 512},
                      GemmShape{200, 5, 300}, GemmShape{7, 200, 300},
                      GemmShape{1, 1, 2048}));

TEST(Syrk, MatchesReferenceLowerOnly) {
  const index_t n = 50, k = 30;
  Dense c = random_matrix(n, n, 41);
  const Dense c0 = c;
  const Dense a = random_matrix(n, k, 42);
  syrk_lower_update(c.view(), a.cview());
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (j > i) {
        // Strict upper triangle untouched.
        EXPECT_EQ(c.at(i, j), c0.at(i, j));
        continue;
      }
      real_t s = c0.at(i, j);
      for (index_t kk = 0; kk < k; ++kk) s -= a.at(i, kk) * a.at(j, kk);
      EXPECT_NEAR(c.at(i, j), s, 1e-11 * (k + 1));
    }
  }
}

TEST(Syrk, EngineSizedMatchesReference) {
  // Large enough that the packed engine (gemm strip + triangular diagonal
  // tiles) handles it, with n, k off every blocking boundary.
  const index_t n = 201, k = 129;
  Dense c = random_matrix(n, n, 43);
  const Dense c0 = c;
  const Dense a = random_matrix(n, k, 44);
  syrk_lower_update(c.view(), a.cview());
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (j > i) {
        EXPECT_EQ(c.at(i, j), c0.at(i, j));
        continue;
      }
      real_t s = c0.at(i, j);
      for (index_t kk = 0; kk < k; ++kk) s -= a.at(i, kk) * a.at(j, kk);
      EXPECT_NEAR(c.at(i, j), s, 1e-11 * (k + 1));
    }
  }
}

TEST(Trsm, EngineSizedRightLowerTransSolves) {
  // Engages the blocked TRSM path (n > block size) with a GEMM-updated
  // left part per column block.
  const index_t n = 150, m = 300;
  Dense l = random_matrix(n, n, 45);
  for (index_t j = 0; j < n; ++j) {
    l.at(j, j) = 2.0 + std::abs(l.at(j, j));
    for (index_t i = 0; i < j; ++i) l.at(i, j) = 0.0;
  }
  const Dense b0 = random_matrix(m, n, 46);
  Dense b = b0;
  trsm_right_lower_trans(l.cview(), b.view());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t s = 0.0;
      for (index_t k = 0; k <= j; ++k) s += b.at(i, k) * l.at(j, k);
      EXPECT_NEAR(s, b0.at(i, j), 1e-9);
    }
  }
}

// --- Row splits: must be bitwise identical to the one-call kernels --------
//
// The engine's per-element summation order depends only on how k is cut
// into KC blocks, never on how rows are split, so the task-DAG
// factorization's slab tasks must not change a single bit of the result.
// Each test splits rows exactly as FactorDag does (mf/dag_factor.cc): TRSM
// and the LDLᵀ GEMM on row blocks [t*m/slabs, (t+1)*m/slabs), the Cholesky
// SYRK as syrk_lower_update_slab over syrk_slab_bounds. The slabs run in
// reverse order — their writes are disjoint, so order must not matter.

class RowSplitKernelTest : public ::testing::TestWithParam<index_t> {};

TEST_P(RowSplitKernelTest, GemmNtBitwiseEqualsOneCall) {
  const index_t slabs = GetParam();
  // The packed engine, and an update below its n·k work threshold: the
  // unpacked loop the LDLᵀ task-DAG slabs call.
  for (const GemmShape& shape : {GemmShape{300, 200, 160},
                                 GemmShape{301, 37, 13}}) {
    const auto [m, n, k] = shape;
    Dense cs = random_matrix(m, n, 61);
    Dense cp = cs;
    const Dense a = random_matrix(m, k, 62);
    const Dense b = random_matrix(n, k, 63);
    gemm_nt_update(cs.view(), a.cview(), b.cview());
    for (index_t t = slabs; t-- > 0;) {
      const index_t r0 = t * m / slabs;
      const index_t r1 = (t + 1) * m / slabs;
      gemm_nt_update(cp.view().block(r0, 0, r1 - r0, n),
                     a.cview().block(r0, 0, r1 - r0, k), b.cview());
    }
    for (std::size_t i = 0; i < cs.v.size(); ++i) {
      ASSERT_EQ(cs.v[i], cp.v[i]) << m << "x" << n << "x" << k
                                  << ", flat index " << i;
    }
  }
}

TEST_P(RowSplitKernelTest, SyrkSlabsBitwiseEqualOneCall) {
  const index_t slabs = GetParam();
  const index_t n = 280, k = 170;
  ASSERT_TRUE(syrk_splittable(n, k));
  Dense cs = random_matrix(n, n, 64);
  Dense cp = cs;
  const Dense a = random_matrix(n, k, 65);
  syrk_lower_update(cs.view(), a.cview());
  const std::vector<index_t> bound = syrk_slab_bounds(n, slabs);
  for (index_t t = slabs; t-- > 0;) {
    syrk_lower_update_slab(cp.view(), a.cview(), bound[t], bound[t + 1]);
  }
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      ASSERT_EQ(cs.at(i, j), cp.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST_P(RowSplitKernelTest, TrsmBitwiseEqualsOneCall) {
  const index_t slabs = GetParam();
  // n = 140 runs the blocked TRSM; n <= 64 runs entirely in the unblocked
  // register-strip kernel. m = 301 puts the slab edges off multiples of 8
  // and 32, so a row moves between full 32-row blocks and last blocks of
  // two to four strips, the last one zero-padded, as the slab count
  // changes; m = 289 adds last blocks of a single strip.
  for (const auto& [m, n] : {std::pair<index_t, index_t>{400, 140},
                             {301, 7}, {301, 32}, {301, 64}, {289, 7},
                             {289, 32}, {289, 64}}) {
    Dense l = random_matrix(n, n, 66);
    for (index_t j = 0; j < n; ++j) {
      l.at(j, j) = 2.0 + std::abs(l.at(j, j));
      for (index_t i = 0; i < j; ++i) l.at(i, j) = 0.0;
    }
    l.at(n - 1, 0) = 0.0;  // an exact zero the solve skips
    Dense bs = random_matrix(m, n, 67);
    Dense bp = bs;
    trsm_right_lower_trans(l.cview(), bs.view());
    for (index_t t = slabs; t-- > 0;) {
      const index_t r0 = t * m / slabs;
      const index_t r1 = (t + 1) * m / slabs;
      trsm_right_lower_trans(l.cview(), bp.view().block(r0, 0, r1 - r0, n));
    }
    for (std::size_t i = 0; i < bs.v.size(); ++i) {
      ASSERT_EQ(bs.v[i], bp.v[i]) << m << "x" << n << ", flat index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Slabs, RowSplitKernelTest,
                         ::testing::Values(1, 2, 5, 16));

TEST(Views, BlockIndexing) {
  Dense d = random_matrix(6, 5, 51);
  const MatrixView v = d.view();
  const MatrixView b = v.block(2, 1, 3, 2);
  EXPECT_EQ(b.rows, 3);
  EXPECT_EQ(b.cols, 2);
  EXPECT_EQ(&b.at(0, 0), &v.at(2, 1));
  EXPECT_EQ(&b.at(2, 1), &v.at(4, 2));
  b.fill(7.0);
  EXPECT_EQ(d.at(3, 1), 7.0);
  EXPECT_NE(d.at(1, 1), 7.0);
}

TEST(Calibration, GemmRateIsPositive) {
  const double rate = measure_gemm_rate(48);
  EXPECT_GT(rate, 1e6);  // any machine does > 1 Mflop/s
}

}  // namespace
}  // namespace parfact
