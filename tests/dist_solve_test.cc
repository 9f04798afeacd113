// Tests for the distributed triangular solve: agreement with the serial
// solve across rank counts, strategies, block sizes and RHS counts.
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

struct SolveCase {
  int ranks;
  MappingStrategy strategy;
  index_t block;
  index_t nrhs;
};

class DistSolveTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(DistSolveTest, MatchesSerialSolve) {
  const auto [ranks, strategy, block, nrhs] = GetParam();
  const SparseMatrix a = grid_laplacian_2d(13, 12, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, ranks, strategy, block);
  const DistFactorResult dist = distributed_factor(sym, map);

  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 7);
  // Serial reference.
  std::vector<real_t> x_ref = b;
  solve_in_place(dist.factor,
                 MatrixView{x_ref.data(), sym.n, nrhs, sym.n});
  // Distributed solve.
  const DistSolveResult ds =
      distributed_solve(sym, map, dist.factor, b, nrhs);
  ASSERT_EQ(ds.x.size(), x_ref.size());
  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    ASSERT_NEAR(ds.x[i], x_ref[i], 1e-10) << "entry " << i;
  }
  EXPECT_GT(ds.run.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistSolveTest,
    ::testing::Values(SolveCase{1, MappingStrategy::kSubtree2d, 48, 1},
                      SolveCase{2, MappingStrategy::kSubtree2d, 8, 1},
                      SolveCase{4, MappingStrategy::kSubtree2d, 8, 3},
                      SolveCase{8, MappingStrategy::kSubtree2d, 4, 1},
                      SolveCase{13, MappingStrategy::kSubtree2d, 8, 2},
                      SolveCase{16, MappingStrategy::kSubtree2d, 16, 1},
                      SolveCase{6, MappingStrategy::kSubtree1d, 8, 1},
                      SolveCase{8, MappingStrategy::kSubtree1d, 4, 2},
                      SolveCase{4, MappingStrategy::kFlat, 8, 1},
                      SolveCase{9, MappingStrategy::kFlat, 8, 2}));

TEST(DistSolve, ResidualOnElasticity) {
  const SparseMatrix a = elasticity_3d(3, 3, 3);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 8, MappingStrategy::kSubtree2d, 8);
  const DistFactorResult dist = distributed_factor(sym, map);
  const std::vector<real_t> b = random_rhs(sym.n, 1, 9);
  const DistSolveResult ds = distributed_solve(sym, map, dist.factor, b, 1);
  EXPECT_LT(relative_residual(sym.a, ds.x, b), 1e-11);
}

// --- Pipelined-vs-blocking schedule contracts. Both schedules compute on
// the same RHS block partition, so the solutions must be bitwise equal;
// they may only differ in virtual time and idle wait.

struct PipelineCase {
  int ranks;
  index_t block;
  index_t nrhs;
  index_t rhs_block;
};

class DistSolvePipelineTest : public ::testing::TestWithParam<PipelineCase> {
};

TEST_P(DistSolvePipelineTest, PipelinedBitwiseEqualsBlocking) {
  const auto [ranks, block, nrhs, rhs_block] = GetParam();
  const SparseMatrix a = grid_laplacian_2d(14, 13);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map =
      build_front_map(sym, ranks, MappingStrategy::kSubtree2d, block);
  const DistFactorResult dist = distributed_factor(sym, map);
  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 19);

  DistSolveConfig blocking;
  blocking.schedule = DistSolveConfig::Schedule::kBlocking;
  blocking.rhs_block = rhs_block;
  DistSolveConfig pipelined;
  pipelined.schedule = DistSolveConfig::Schedule::kPipelined;
  pipelined.rhs_block = rhs_block;

  const DistSolveResult base =
      distributed_solve(sym, map, dist.factor, b, nrhs, {}, {}, blocking);
  const DistSolveResult pipe =
      distributed_solve(sym, map, dist.factor, b, nrhs, {}, {}, pipelined);
  ASSERT_EQ(base.x.size(), pipe.x.size());
  for (std::size_t i = 0; i < base.x.size(); ++i) {
    ASSERT_EQ(pipe.x[i], base.x[i]) << "entry " << i;
  }
  EXPECT_GT(pipe.run.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistSolvePipelineTest,
    ::testing::Values(PipelineCase{1, 48, 4, 2},
                      PipelineCase{2, 8, 6, 2},
                      PipelineCase{4, 8, 16, 4},
                      PipelineCase{8, 4, 3, 1},
                      PipelineCase{13, 8, 8, 8},
                      PipelineCase{16, 16, 5, 2}));

TEST(DistSolvePipeline, LdltBitwiseAcrossSchedules) {
  const SparseMatrix a = saddle_point_kkt(120, 50, 4, 3);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 6, MappingStrategy::kSubtree2d, 8);
  const DistFactorResult dist =
      distributed_factor(sym, map, {}, FactorKind::kLdlt);
  ASSERT_TRUE(dist.status.ok());
  const index_t nrhs = 5;
  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 23);

  DistSolveConfig blocking;
  blocking.schedule = DistSolveConfig::Schedule::kBlocking;
  blocking.rhs_block = 2;
  DistSolveConfig pipelined;
  pipelined.rhs_block = 2;
  const DistSolveResult base =
      distributed_solve(sym, map, dist.factor, b, nrhs, {}, {}, blocking);
  const DistSolveResult pipe =
      distributed_solve(sym, map, dist.factor, b, nrhs, {}, {}, pipelined);
  for (std::size_t i = 0; i < base.x.size(); ++i) {
    ASSERT_EQ(pipe.x[i], base.x[i]) << "entry " << i;
  }
  EXPECT_LT(relative_residual(
                sym.a, {pipe.x.data(), static_cast<std::size_t>(sym.n)},
                {b.data(), static_cast<std::size_t>(sym.n)}),
            1e-11);
}

TEST(DistSolvePipeline, FaultPlanPreservesBitwiseIdentity) {
  // Message drops and delays ride the mpsim retry protocol below the
  // request layer: the pipelined solution must stay bitwise identical to
  // the fault-free run of either schedule.
  const SparseMatrix a = grid_laplacian_2d(12, 11);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 8, MappingStrategy::kSubtree2d, 8);
  const DistFactorResult dist = distributed_factor(sym, map);
  const index_t nrhs = 6;
  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 29);

  DistSolveConfig pipelined;
  pipelined.rhs_block = 2;
  const DistSolveResult clean =
      distributed_solve(sym, map, dist.factor, b, nrhs, {}, {}, pipelined);

  mpsim::FaultPlan faults;
  faults.seed = 1234;
  faults.drop_rate = 0.05;
  faults.delay_rate = 0.2;
  faults.duplicate_rate = 0.02;
  const DistSolveResult faulty = distributed_solve(
      sym, map, dist.factor, b, nrhs, {}, faults, pipelined);
  ASSERT_EQ(faulty.x.size(), clean.x.size());
  for (std::size_t i = 0; i < clean.x.size(); ++i) {
    ASSERT_EQ(faulty.x[i], clean.x[i]) << "entry " << i;
  }
  // Retries cost virtual time, never correctness.
  EXPECT_GE(faulty.run.makespan, clean.run.makespan);
}

TEST(DistSolvePipeline, ReducesIdleWaitAtScale) {
  // The point of the pipelined schedule: per-RHS-block messages overlap the
  // reductions of block k+1 with the computation of block k, within fronts
  // and up the tree, cutting summed idle wait on a multi-RHS solve.
  //
  // Pipelining pays when a block's wire cost (rhs_block * block_rows * 8 *
  // beta) is at least comparable to the per-message latency alpha; on a
  // high-latency machine the extra message count dominates instead (see
  // DESIGN.md). So this contract is pinned on a low-latency interconnect
  // (alpha = 100 ns) and a 3-D problem whose top fronts span many ranks —
  // small 2-D problems map every front to one rank and exchange nothing.
  const SparseMatrix a = grid_laplacian_3d(12, 12, 12, 7);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map =
      build_front_map(sym, 64, MappingStrategy::kSubtree2d, 32);
  const DistFactorResult dist = distributed_factor(sym, map);
  const index_t nrhs = 32;
  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 31);

  mpsim::MachineModel model;
  model.alpha = 1e-7;
  DistSolveConfig blocking;
  blocking.schedule = DistSolveConfig::Schedule::kBlocking;
  blocking.rhs_block = 8;
  DistSolveConfig pipelined;
  pipelined.rhs_block = 8;
  const DistSolveResult base =
      distributed_solve(sym, map, dist.factor, b, nrhs, model, {}, blocking);
  const DistSolveResult pipe =
      distributed_solve(sym, map, dist.factor, b, nrhs, model, {}, pipelined);
  ASSERT_EQ(pipe.x, base.x);  // identical arithmetic, different schedule
  EXPECT_LT(pipe.run.idle_wait_seconds, base.run.idle_wait_seconds);
  EXPECT_LT(pipe.run.makespan, base.run.makespan);
  EXPECT_GE(pipe.run.overlap_efficiency, base.run.overlap_efficiency);
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
