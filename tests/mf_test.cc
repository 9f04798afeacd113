// Tests for the multifrontal factorization, the solve phase, and agreement
// with the simplicial baseline.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/simplicial.h"
#include "mf/multifrontal.h"
#include "solve/solve.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/prng.h"
#include "symbolic/symbolic_factor.h"

// Counts the allocations of at least 4 KiB made while counting is on,
// through the replaced global operator new below.
namespace alloc_count {
constexpr std::size_t kLarge = 4096;
std::atomic<bool> enabled{false};
std::atomic<long> large{0};
}  // namespace alloc_count

// Out of line: inlined into a caller, the malloc()/free() inside would read
// as a mismatched new/delete pair to GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (size >= alloc_count::kLarge &&
      alloc_count::enabled.load(std::memory_order_relaxed)) {
    alloc_count::large.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace parfact {
namespace {

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

/// Residual of solving A x = b with the multifrontal pipeline, where A is
/// the postordered matrix inside the symbolic factor.
real_t factor_and_solve_residual(const SymbolicFactor& sym,
                                 const CholeskyFactor& factor,
                                 std::uint64_t seed) {
  const index_t n = sym.n;
  const std::vector<real_t> b = random_vector(n, seed);
  std::vector<real_t> x = b;
  solve_in_place(factor, MatrixView{x.data(), n, 1, n});
  return relative_residual(sym.a, x, b);
}

TEST(Multifrontal, SolvesSuiteMatrices) {
  for (const auto& prob : test_suite(0.12)) {
    const SymbolicFactor sym = analyze(prob.lower);
    FactorStats stats;
    const CholeskyFactor f = multifrontal_factor(sym, &stats);
    EXPECT_LT(factor_and_solve_residual(sym, f, 1), 1e-12) << prob.name;
    EXPECT_EQ(stats.flops, sym.total_flops);
    EXPECT_GT(stats.peak_update_bytes, 0u) << prob.name;
  }
}

// The serial driver allocates its update-block storage once per call, so
// the number of large allocations in an in-place refactorization does not
// grow with the number of fronts (a heap block per front would). Per-call
// tables sized by n or by the number of fronts may each cross the 4 KiB
// line between the two grids, so the counts may differ by that many.
TEST(Multifrontal, RefactorLargeAllocationsDoNotGrowWithFronts) {
  constexpr long kPerCallTables = 8;
  std::vector<long> counts;
  std::vector<index_t> fronts;
  for (const index_t k : {40, 150}) {
    const SymbolicFactor sym = analyze(grid_laplacian_2d(k, k));
    CholeskyFactor factor = multifrontal_factor(sym);
    alloc_count::large = 0;
    alloc_count::enabled = true;
    multifrontal_refactor(sym, factor);
    alloc_count::enabled = false;
    counts.push_back(alloc_count::large.load());
    fronts.push_back(sym.n_supernodes);
  }
  ASSERT_GT(fronts[1] - fronts[0], 10 * kPerCallTables);
  EXPECT_GT(counts[0], 0);  // the arena itself
  EXPECT_LE(counts[1] - counts[0], kPerCallTables)
      << counts[0] << " vs " << counts[1] << " large allocations for "
      << fronts[0] << " vs " << fronts[1] << " fronts";
}

TEST(Multifrontal, MatchesSimplicialFactor) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const SparseMatrix a = random_spd(80, 4, seed);
    const SymbolicFactor sym = analyze(a);
    const CholeskyFactor mf = multifrontal_factor(sym);
    // Same (postordered) matrix through the simplicial path.
    const SparseMatrix ls = simplicial_cholesky(sym.a);
    for (index_t j = 0; j < sym.n; ++j) {
      for (index_t p = ls.col_ptr[j]; p < ls.col_ptr[j + 1]; ++p) {
        EXPECT_NEAR(mf.entry(ls.row_ind[p], j), ls.values[p], 1e-10)
            << "seed " << seed << " at (" << ls.row_ind[p] << "," << j << ")";
      }
    }
  }
}

TEST(Multifrontal, DiagonalMatrix) {
  TripletBuilder b(4, 4);
  for (index_t j = 0; j < 4; ++j) b.add(j, j, static_cast<real_t>(j + 1));
  const SymbolicFactor sym = analyze(b.build());
  const CholeskyFactor f = multifrontal_factor(sym);
  for (index_t j = 0; j < 4; ++j) {
    // Postorder of a forest of singleton roots is the identity.
    EXPECT_NEAR(f.entry(j, j), std::sqrt(static_cast<real_t>(sym.post[j] + 1)),
                1e-15);
  }
}

TEST(Multifrontal, OneByOne) {
  TripletBuilder b(1, 1);
  b.add(0, 0, 9.0);
  const SymbolicFactor sym = analyze(b.build());
  const CholeskyFactor f = multifrontal_factor(sym);
  EXPECT_DOUBLE_EQ(f.entry(0, 0), 3.0);
}

TEST(Multifrontal, ThrowsOnIndefiniteMatrix) {
  TripletBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  b.add(2, 2, 1.0);
  b.add(1, 0, 5.0);  // 2x2 leading block has negative determinant
  const SymbolicFactor sym = analyze(b.build());
  EXPECT_THROW(multifrontal_factor(sym), Error);
}

TEST(Multifrontal, AmalgamationDoesNotChangeSolution) {
  const SparseMatrix a = grid_laplacian_2d(15, 15, 5);
  AmalgamationOptions off;
  off.enable = false;
  const SymbolicFactor sym_off = analyze(a, off);
  const SymbolicFactor sym_on = analyze(a);
  const CholeskyFactor f_off = multifrontal_factor(sym_off);
  const CholeskyFactor f_on = multifrontal_factor(sym_on);
  // Solve with identical b through both and compare in original order.
  const index_t n = a.rows;
  const std::vector<real_t> b = random_vector(n, 5);
  auto solve_original = [&](const SymbolicFactor& sym,
                            const CholeskyFactor& f) {
    std::vector<real_t> pb(static_cast<std::size_t>(n));
    const auto inv = invert_permutation(sym.post);
    for (index_t i = 0; i < n; ++i) pb[inv[i]] = b[i];
    solve_in_place(f, MatrixView{pb.data(), n, 1, n});
    std::vector<real_t> x(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) x[i] = pb[inv[i]];
    return x;
  };
  const auto x1 = solve_original(sym_off, f_off);
  const auto x2 = solve_original(sym_on, f_on);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

class ParallelFactorTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFactorTest, MatchesSerialBitwise) {
  const int threads = GetParam();
  const SparseMatrix a = grid_laplacian_3d(7, 7, 7, 7);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor serial = multifrontal_factor(sym);
  ThreadPool pool(threads);
  FactorStats stats;
  const CholeskyFactor par = multifrontal_factor_parallel(sym, pool, &stats);
  // Deterministic extend-add order means bitwise identical results.
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView ps = serial.panel(s);
    const ConstMatrixView pp = par.panel(s);
    for (index_t j = 0; j < ps.cols; ++j) {
      for (index_t i = j; i < ps.rows; ++i) {
        ASSERT_EQ(ps.at(i, j), pp.at(i, j)) << "sn " << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelFactorTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelFactor, CooperativePathMatchesSerialBitwise) {
  // coop_flops = 0 pushes every supernode into the cooperative phase, so
  // this exercises the pool-split TRSM/SYRK row partitioning on every
  // front. The intra-front split must not change the summation order, so
  // the result has to be bitwise identical to the serial factorization.
  const SparseMatrix a = grid_laplacian_3d(7, 7, 7, 7);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor serial = multifrontal_factor(sym);
  ThreadPool pool(4);
  const CholeskyFactor par = multifrontal_factor_parallel(
      sym, pool, nullptr, FactorKind::kCholesky, /*coop_flops=*/0);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView ps = serial.panel(s);
    const ConstMatrixView pp = par.panel(s);
    for (index_t j = 0; j < ps.cols; ++j) {
      for (index_t i = j; i < ps.rows; ++i) {
        ASSERT_EQ(ps.at(i, j), pp.at(i, j)) << "sn " << s;
      }
    }
  }
}

TEST(ParallelFactor, MixedPhasesMatchSerialBitwise) {
  // A mid-range threshold makes phase 1 (task-per-supernode subtrees) and
  // phase 2 (cooperative top of the tree) both non-trivial.
  const SparseMatrix a = grid_laplacian_3d(8, 8, 8, 7);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor serial = multifrontal_factor(sym);
  ThreadPool pool(3);
  const CholeskyFactor par = multifrontal_factor_parallel(
      sym, pool, nullptr, FactorKind::kCholesky, /*coop_flops=*/100'000);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView ps = serial.panel(s);
    const ConstMatrixView pp = par.panel(s);
    for (index_t j = 0; j < ps.cols; ++j) {
      for (index_t i = j; i < ps.rows; ++i) {
        ASSERT_EQ(ps.at(i, j), pp.at(i, j)) << "sn " << s;
      }
    }
  }
}

TEST(ParallelFactor, PropagatesNotSpd) {
  TripletBuilder b(5, 5);
  for (index_t j = 0; j < 5; ++j) b.add(j, j, 1.0);
  b.add(4, 3, 5.0);
  const SymbolicFactor sym = analyze(b.build());
  ThreadPool pool(2);
  EXPECT_THROW(multifrontal_factor_parallel(sym, pool), Error);
}

// --- Solve phase ------------------------------------------------------------

TEST(Solve, MultipleRhs) {
  const SparseMatrix a = grid_laplacian_2d(12, 11, 5);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor f = multifrontal_factor(sym);
  const index_t n = sym.n;
  const index_t nrhs = 5;
  std::vector<real_t> xs(static_cast<std::size_t>(n) * nrhs);
  Prng rng(3);
  for (auto& v : xs) v = rng.next_real(-1, 1);
  const std::vector<real_t> bs = xs;
  solve_in_place(f, MatrixView{xs.data(), n, nrhs, n});
  for (index_t c = 0; c < nrhs; ++c) {
    const std::span<const real_t> x(xs.data() + static_cast<std::size_t>(c) * n,
                                    static_cast<std::size_t>(n));
    const std::span<const real_t> b(bs.data() + static_cast<std::size_t>(c) * n,
                                    static_cast<std::size_t>(n));
    EXPECT_LT(relative_residual(sym.a, x, b), 1e-13) << "rhs " << c;
  }
}

TEST(Solve, IterativeRefinementImproves) {
  const SparseMatrix a = grid_laplacian_3d(6, 6, 6, 27);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor f = multifrontal_factor(sym);
  const index_t n = sym.n;
  const auto b = random_vector(n, 8);
  std::vector<real_t> x = b;
  solve_in_place(f, MatrixView{x.data(), n, 1, n});
  // Perturb the solution to force refinement work.
  for (index_t i = 0; i < n; i += 7) x[i] += 1e-6;
  const real_t before = relative_residual(sym.a, x, b);
  const SolveSchedule schedule(sym);
  SolveWorkspace workspace;
  const RefinementResult r = refine(
      sym.a, ConstMatrixView{b.data(), n, 1, n}, MatrixView{x.data(), n, 1, n},
      [&](MatrixView v) { solve_in_place(f, v, schedule, workspace); },
      /*passes=*/4, 1e-15);
  EXPECT_LT(r.residual, before);
  EXPECT_LT(r.residual, 1e-13);
  EXPECT_GE(r.iterations, 1);
}

TEST(Solve, ResidualOfExactSolutionIsZero) {
  const SparseMatrix a = banded_spd(30, 2);
  std::vector<real_t> x(30, 0.0);
  std::vector<real_t> b(30, 0.0);
  EXPECT_DOUBLE_EQ(relative_residual(a, x, b), 0.0);
}

// --- Simplicial baseline -----------------------------------------------------

TEST(Simplicial, SolvesAndMatchesResidual) {
  for (std::uint64_t seed : {4u, 5u}) {
    const SparseMatrix a = random_spd(100, 4, seed);
    SimplicialStats stats;
    const SparseMatrix l = simplicial_cholesky(a, &stats);
    l.validate();
    EXPECT_GT(stats.nnz_l, a.nnz());
    const auto b = random_vector(100, seed);
    std::vector<real_t> x = b;
    simplicial_forward_solve(l, x);
    simplicial_backward_solve(l, x);
    EXPECT_LT(relative_residual(a, x, b), 1e-12);
  }
}

TEST(Simplicial, NnzMatchesSymbolicPrediction) {
  const SparseMatrix a = grid_laplacian_2d(13, 13, 5);
  const SymbolicFactor sym = analyze(a);
  SimplicialStats stats;
  (void)simplicial_cholesky(sym.a, &stats);
  EXPECT_EQ(stats.nnz_l, sym.nnz_strict);
}

TEST(Simplicial, ThrowsOnIndefinite) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  b.add(1, 0, 3.0);
  EXPECT_THROW(simplicial_cholesky(b.build()), Error);
}

TEST(DenseBaseline, MatchesSparseSolvers) {
  const SparseMatrix a = random_spd(40, 3, 9);
  const auto b = random_vector(40, 10);
  std::vector<real_t> xd = b;
  dense_cholesky_solve(a, xd);
  EXPECT_LT(relative_residual(a, xd, b), 1e-12);
}

}  // namespace
}  // namespace parfact
