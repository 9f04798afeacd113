// Tests for the distributed triangular solve: agreement with the serial
// solve across rank counts, strategies, front block sizes, RHS counts and
// RHS block widths, and the block width's cost trade-off.
#include <vector>

#include <gtest/gtest.h>

#include "dist/dist_factor.h"
#include "dist/dist_solve.h"
#include "dist/mapping.h"
#include "mf/multifrontal.h"
#include "solve/solve.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/prng.h"

namespace parfact {
namespace {

std::vector<real_t> random_rhs(index_t n, index_t nrhs, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : b) v = rng.next_real(-1, 1);
  return b;
}

/// The serial solve of the n x nrhs block `b` against `factor`.
std::vector<real_t> serial_solve(const SymbolicFactor& sym,
                                 const CholeskyFactor& factor,
                                 const std::vector<real_t>& b, index_t nrhs) {
  std::vector<real_t> x = b;
  solve_in_place(factor, MatrixView{x.data(), sym.n, nrhs, sym.n});
  return x;
}

void expect_near_serial(const std::vector<real_t>& x,
                        const std::vector<real_t>& x_ref) {
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    ASSERT_NEAR(x[i], x_ref[i], 1e-10) << "entry " << i;
  }
}

struct SolveCase {
  int ranks;
  MappingStrategy strategy;
  index_t block;
  index_t nrhs;
  index_t rhs_block;
};

class DistSolveTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(DistSolveTest, MatchesSerialSolve) {
  const auto [ranks, strategy, block, nrhs, rhs_block] = GetParam();
  const SparseMatrix a = grid_laplacian_2d(13, 12, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, ranks, strategy, block);
  const DistFactorResult dist = distributed_factor(sym, map);

  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 7);
  DistSolveConfig config;
  config.rhs_block = rhs_block;
  const DistSolveResult ds =
      distributed_solve(sym, map, dist.factor, b, nrhs, {}, {}, config);
  expect_near_serial(ds.x, serial_solve(sym, dist.factor, b, nrhs));
  EXPECT_GT(ds.run.makespan, 0.0);
}

// The first ten shapes run the default 8-column blocks; the last six split
// several right-hand sides into narrow blocks, a ragged last block
// included, or send them as one block.
INSTANTIATE_TEST_SUITE_P(
    Cases, DistSolveTest,
    ::testing::Values(SolveCase{1, MappingStrategy::kSubtree2d, 48, 1, 8},
                      SolveCase{2, MappingStrategy::kSubtree2d, 8, 1, 8},
                      SolveCase{4, MappingStrategy::kSubtree2d, 8, 3, 8},
                      SolveCase{8, MappingStrategy::kSubtree2d, 4, 1, 8},
                      SolveCase{13, MappingStrategy::kSubtree2d, 8, 2, 8},
                      SolveCase{16, MappingStrategy::kSubtree2d, 16, 1, 8},
                      SolveCase{6, MappingStrategy::kSubtree1d, 8, 1, 8},
                      SolveCase{8, MappingStrategy::kSubtree1d, 4, 2, 8},
                      SolveCase{4, MappingStrategy::kFlat, 8, 1, 8},
                      SolveCase{9, MappingStrategy::kFlat, 8, 2, 8},
                      SolveCase{1, MappingStrategy::kSubtree2d, 48, 4, 2},
                      SolveCase{2, MappingStrategy::kSubtree2d, 8, 6, 2},
                      SolveCase{4, MappingStrategy::kSubtree2d, 8, 16, 4},
                      SolveCase{8, MappingStrategy::kSubtree2d, 4, 3, 1},
                      SolveCase{13, MappingStrategy::kSubtree2d, 8, 8, 8},
                      SolveCase{16, MappingStrategy::kSubtree2d, 16, 5, 2}));

TEST(DistSolve, ResidualOnElasticity) {
  const SparseMatrix a = elasticity_3d(3, 3, 3);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 8, MappingStrategy::kSubtree2d, 8);
  const DistFactorResult dist = distributed_factor(sym, map);
  const std::vector<real_t> b = random_rhs(sym.n, 1, 9);
  const DistSolveResult ds = distributed_solve(sym, map, dist.factor, b, 1);
  EXPECT_LT(relative_residual(sym.a, ds.x, b), 1e-11);
}

TEST(DistSolve, LdltMatchesSerialSolve) {
  const SparseMatrix a = saddle_point_kkt(120, 50, 4, 3);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 6, MappingStrategy::kSubtree2d, 8);
  const DistFactorResult dist =
      distributed_factor(sym, map, {}, FactorKind::kLdlt);
  ASSERT_TRUE(dist.status.ok());
  const index_t nrhs = 5;
  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 23);

  DistSolveConfig config;
  config.rhs_block = 2;
  const DistSolveResult ds =
      distributed_solve(sym, map, dist.factor, b, nrhs, {}, {}, config);
  expect_near_serial(ds.x, serial_solve(sym, dist.factor, b, nrhs));
  EXPECT_LT(relative_residual(
                sym.a, {ds.x.data(), static_cast<std::size_t>(sym.n)},
                {b.data(), static_cast<std::size_t>(sym.n)}),
            1e-11);
}

TEST(DistSolve, FaultPlanPreservesBitwiseIdentity) {
  // Message drops and delays ride the mpsim retry protocol below the
  // request layer: the solution must stay bitwise identical to the
  // fault-free run.
  const SparseMatrix a = grid_laplacian_2d(12, 11);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 8, MappingStrategy::kSubtree2d, 8);
  const DistFactorResult dist = distributed_factor(sym, map);
  const index_t nrhs = 6;
  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 29);

  DistSolveConfig config;
  config.rhs_block = 2;
  const DistSolveResult clean =
      distributed_solve(sym, map, dist.factor, b, nrhs, {}, {}, config);

  mpsim::FaultPlan faults;
  faults.seed = 1234;
  faults.drop_rate = 0.05;
  faults.delay_rate = 0.2;
  faults.duplicate_rate = 0.02;
  const DistSolveResult faulty =
      distributed_solve(sym, map, dist.factor, b, nrhs, {}, faults, config);
  ASSERT_EQ(faulty.x.size(), clean.x.size());
  for (std::size_t i = 0; i < clean.x.size(); ++i) {
    ASSERT_EQ(faulty.x[i], clean.x[i]) << "entry " << i;
  }
  // Retries cost virtual time, never correctness.
  EXPECT_GE(faulty.run.makespan, clean.run.makespan);
}

TEST(DistSolve, BlockWidthTradesOverlapForMessages) {
  // Narrow RHS blocks overlap the reductions of block k+1 with the
  // computation of block k, within fronts and up the tree, cutting summed
  // idle wait on a multi-RHS solve — at the price of one message per block
  // per exchange. That pays when a block's wire cost (rhs_block *
  // block_rows * 8 * beta) is at least comparable to the per-message
  // latency alpha: on a low-latency interconnect (alpha = 100 ns) narrow
  // blocks win, and on the commodity model (alpha = 5 us) the extra
  // messages dominate and one block wins. The problem is 3-D so that the
  // top fronts span many ranks — small 2-D problems map every front to one
  // rank and exchange nothing.
  const SparseMatrix a = grid_laplacian_3d(12, 12, 12, 7);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map =
      build_front_map(sym, 64, MappingStrategy::kSubtree2d, 32);
  const DistFactorResult dist = distributed_factor(sym, map);
  const index_t nrhs = 32;
  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 31);

  DistSolveConfig narrow;
  narrow.rhs_block = 8;
  DistSolveConfig one;
  one.rhs_block = nrhs;
  mpsim::MachineModel low_latency;
  low_latency.alpha = 1e-7;
  {
    SCOPED_TRACE("low latency");
    const DistSolveResult n8 = distributed_solve(
        sym, map, dist.factor, b, nrhs, low_latency, {}, narrow);
    const DistSolveResult n1 = distributed_solve(
        sym, map, dist.factor, b, nrhs, low_latency, {}, one);
    EXPECT_LT(n8.run.idle_wait_seconds, n1.run.idle_wait_seconds);
    EXPECT_LT(n8.run.makespan, n1.run.makespan);
    EXPECT_GE(n8.run.overlap_efficiency, n1.run.overlap_efficiency);
  }
  {
    SCOPED_TRACE("commodity");
    const mpsim::MachineModel commodity;
    const DistSolveResult n8 = distributed_solve(
        sym, map, dist.factor, b, nrhs, commodity, {}, narrow);
    const DistSolveResult n1 =
        distributed_solve(sym, map, dist.factor, b, nrhs, commodity, {}, one);
    EXPECT_LT(n1.run.makespan, n8.run.makespan);
    EXPECT_LT(n1.run.total_messages, n8.run.total_messages);
  }
}

TEST(DistSolve, RejectsCrashPlans) {
  const SparseMatrix a = grid_laplacian_2d(8, 8);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 4, MappingStrategy::kSubtree2d, 8);
  const DistFactorResult dist = distributed_factor(sym, map);
  const std::vector<real_t> b = random_rhs(sym.n, 1, 33);
  mpsim::FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, /*at=*/0.0});
  const DistSolveResult r =
      distributed_solve_checked(sym, map, dist.factor, b, 1, {}, faults);
  EXPECT_FALSE(r.status.ok());
}

TEST(DistSolve, SolveIsCheaperThanFactor) {
  // The solve phase moves O(nnz(L)) data vs O(flops) work: virtual time
  // must be far below factorization time on a 3-D problem.
  const SparseMatrix a = grid_laplacian_3d(9, 9, 9, 7);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 4, MappingStrategy::kSubtree2d);
  const DistFactorResult dist = distributed_factor(sym, map);
  const std::vector<real_t> b = random_rhs(sym.n, 1, 11);
  const DistSolveResult ds = distributed_solve(sym, map, dist.factor, b, 1);
  EXPECT_LT(ds.run.makespan, dist.run.makespan);
}

}  // namespace
}  // namespace parfact
