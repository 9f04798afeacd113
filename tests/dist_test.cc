// Tests for the distributed factorization: mapping invariants, block
// partitioning, and numerical agreement with the serial multifrontal factor
// across rank counts, strategies and block sizes.
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dist/dist_factor.h"
#include "dist/front_blocks.h"
#include "dist/mapping.h"
#include "mf/multifrontal.h"
#include "api/solver.h"
#include "solve/solve.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/prng.h"
#include "support/stats.h"

namespace parfact {
namespace {

TEST(FrontBlocking, PartitionsPanelAndBelow) {
  const FrontBlocking fb = FrontBlocking::make(10, 7, 4);
  EXPECT_EQ(fb.kp, 3);
  EXPECT_EQ(fb.nB, 5);
  // Panel blocks: [0,4) [4,8) [8,10); below: [10,14) [14,17).
  EXPECT_EQ(fb.start(0), 0);
  EXPECT_EQ(fb.size(0), 4);
  EXPECT_EQ(fb.start(2), 8);
  EXPECT_EQ(fb.size(2), 2);
  EXPECT_EQ(fb.start(3), 10);
  EXPECT_EQ(fb.size(3), 4);
  EXPECT_EQ(fb.size(4), 3);
  // block_of is the inverse of the partition.
  for (index_t r = 0; r < 17; ++r) {
    const index_t blk = fb.block_of(r);
    EXPECT_GE(r, fb.start(blk));
    EXPECT_LT(r, fb.start(blk) + fb.size(blk));
  }
}

TEST(FrontBlocking, EmptyBelow) {
  const FrontBlocking fb = FrontBlocking::make(5, 0, 8);
  EXPECT_EQ(fb.kp, 1);
  EXPECT_EQ(fb.nB, 1);
  EXPECT_EQ(fb.size(0), 5);
}

TEST(Mapping, RangesNestAndCoverWork) {
  const SparseMatrix a = grid_laplacian_2d(30, 30, 5);
  const SymbolicFactor sym = analyze(a);
  for (const auto strategy :
       {MappingStrategy::kSubtree2d, MappingStrategy::kSubtree1d,
        MappingStrategy::kFlat}) {
    for (int p : {1, 2, 3, 4, 8, 16, 64}) {
      const FrontMap map = build_front_map(sym, p, strategy);
      map.validate(sym);  // nesting + grid invariants
      // Roots must use all ranks in subtree strategies only when work
      // justifies it; at minimum every supernode range is non-empty (checked
      // by validate) and flat maps use everything.
      if (strategy == MappingStrategy::kFlat) {
        for (index_t s = 0; s < sym.n_supernodes; ++s) {
          EXPECT_EQ(map.rank_count[s], p);
        }
      }
    }
  }
}

TEST(Mapping, SubtreeMappingSpreadsLoad) {
  const SparseMatrix a = grid_laplacian_2d(40, 40, 5);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  // Small grain so this small problem genuinely spreads over all 8 ranks.
  const FrontMap map =
      build_front_map(sym, 8, MappingStrategy::kSubtree2d, 48, 1e3);
  const auto load = mapped_work_per_rank(sym, map);
  const SampleSummary s = summarize(load);
  EXPECT_GT(s.min, 0.0);
  EXPECT_LT(s.imbalance(), 2.5);  // proportional mapping keeps max/mean sane
}

TEST(Mapping, OneDGridsAreColumns) {
  const SparseMatrix a = grid_laplacian_2d(12, 12, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 6, MappingStrategy::kSubtree1d);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    EXPECT_EQ(map.grid_cols[s], 1);
    EXPECT_EQ(map.grid_rows[s], map.rank_count[s]);
  }
}

TEST(Mapping, TwoDGridsAreSquarish) {
  const SparseMatrix a = grid_laplacian_2d(12, 12, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 16, MappingStrategy::kSubtree2d);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    if (map.rank_count[s] == 16) {
      EXPECT_EQ(map.grid_rows[s], 4);
      EXPECT_EQ(map.grid_cols[s], 4);
    }
  }
}

// --- Distributed numeric factorization --------------------------------------

void expect_factors_match(const SymbolicFactor& sym, const CholeskyFactor& a,
                          const CholeskyFactor& b, real_t tol) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    for (index_t j = 0; j < pa.cols; ++j) {
      for (index_t i = j; i < pa.rows; ++i) {
        ASSERT_NEAR(pa.at(i, j), pb.at(i, j), tol)
            << "supernode " << s << " (" << i << "," << j << ")";
      }
    }
  }
}

struct DistCase {
  int ranks;
  MappingStrategy strategy;
  index_t block;
};

class DistFactorTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistFactorTest, MatchesSerialFactorOnGrid) {
  const auto [ranks, strategy, block] = GetParam();
  const SparseMatrix a = grid_laplacian_2d(17, 15, 5);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor serial = multifrontal_factor(sym);
  const FrontMap map = build_front_map(sym, ranks, strategy, block);
  const DistFactorResult dist = distributed_factor(sym, map);
  expect_factors_match(sym, serial, dist.factor, 1e-10);
  EXPECT_GT(dist.run.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistFactorTest,
    ::testing::Values(DistCase{1, MappingStrategy::kSubtree2d, 48},
                      DistCase{2, MappingStrategy::kSubtree2d, 8},
                      DistCase{4, MappingStrategy::kSubtree2d, 8},
                      DistCase{8, MappingStrategy::kSubtree2d, 4},
                      DistCase{13, MappingStrategy::kSubtree2d, 8},
                      DistCase{16, MappingStrategy::kSubtree2d, 16},
                      DistCase{4, MappingStrategy::kSubtree1d, 8},
                      DistCase{8, MappingStrategy::kSubtree1d, 4},
                      DistCase{4, MappingStrategy::kFlat, 8},
                      DistCase{9, MappingStrategy::kFlat, 8}));

TEST(DistFactor, Elasticity3dResidual) {
  const SparseMatrix a = elasticity_3d(4, 3, 3);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, 8, MappingStrategy::kSubtree2d, 8);
  const DistFactorResult dist = distributed_factor(sym, map);
  // Solve with the gathered factor and check the residual.
  const index_t n = sym.n;
  Prng rng(3);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.next_real(-1, 1);
  std::vector<real_t> x = b;
  solve_in_place(dist.factor, MatrixView{x.data(), n, 1, n});
  EXPECT_LT(relative_residual(sym.a, x, b), 1e-11);
}

TEST(DistFactor, RandomSpdAcrossRankCounts) {
  const SparseMatrix a = random_spd(150, 4, 31);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor serial = multifrontal_factor(sym);
  for (int p : {2, 5, 8}) {
    const FrontMap map =
        build_front_map(sym, p, MappingStrategy::kSubtree2d, 8);
    const DistFactorResult dist = distributed_factor(sym, map);
    expect_factors_match(sym, serial, dist.factor, 1e-9);
  }
}

TEST(DistFactor, VirtualTimeShrinksWithRanks) {
  // Strong scaling on a mid-size 3-D problem: simulated time at p=16 must
  // be well below p=1.
  const SparseMatrix a = grid_laplacian_3d(12, 12, 12, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const FrontMap m1 = build_front_map(sym, 1, MappingStrategy::kSubtree2d);
  const FrontMap m16 = build_front_map(sym, 16, MappingStrategy::kSubtree2d);
  const double t1 = distributed_factor(sym, m1).run.makespan;
  const double t16 = distributed_factor(sym, m16).run.makespan;
  EXPECT_LT(t16, t1 / 3.0);
}

TEST(DistFactor, MessageCountsGrowWithRanks) {
  const SparseMatrix a = grid_laplacian_2d(20, 20, 5);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  // Small grain: this little problem must still be spread for the test.
  const FrontMap m2 =
      build_front_map(sym, 2, MappingStrategy::kSubtree2d, 8, 1e3);
  const FrontMap m8 =
      build_front_map(sym, 8, MappingStrategy::kSubtree2d, 8, 1e3);
  const auto r2 = distributed_factor(sym, m2);
  const auto r8 = distributed_factor(sym, m8);
  EXPECT_GT(r8.run.total_messages, r2.run.total_messages);
  EXPECT_GT(r2.run.total_messages, 0);
}

TEST(DistFactor, PeakMemoryPerRankDropsWithRanks) {
  const SparseMatrix a = grid_laplacian_3d(10, 10, 10, 7);
  const SymbolicFactor sym = analyze(a);
  const auto peak_max = [&](int p) {
    const FrontMap m = build_front_map(sym, p, MappingStrategy::kSubtree2d);
    const auto r = distributed_factor(sym, m);
    count_t mx = 0;
    for (count_t v : r.run.rank_peak_bytes) mx = std::max(mx, v);
    return mx;
  };
  EXPECT_LT(peak_max(8), peak_max(1));
}

TEST(DistFactor, NotSpdFailsCleanly) {
  TripletBuilder b(6, 6);
  for (index_t j = 0; j < 6; ++j) b.add(j, j, 1.0);
  b.add(5, 4, 4.0);
  const SymbolicFactor sym = analyze(b.build());
  const FrontMap map = build_front_map(sym, 4, MappingStrategy::kSubtree2d);
  EXPECT_THROW(distributed_factor(sym, map), Error);
}

// --- Schedule ablation: bitwise identity ------------------------------------
//
// The depth-1 panel lookahead and the fan-both task DAG are pure
// communication optimizations: every schedule must produce the bitwise
// identical factor — and perturbation count — as the blocking schedule,
// clean, under message faults, and through a crash recovery.

void expect_factors_bitwise_equal(const SymbolicFactor& sym,
                                  const CholeskyFactor& a,
                                  const CholeskyFactor& b) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    for (index_t j = 0; j < pa.cols; ++j) {
      for (index_t i = j; i < pa.rows; ++i) {
        ASSERT_EQ(pa.at(i, j), pb.at(i, j))
            << "supernode " << s << " (" << i << "," << j << ")";
      }
    }
  }
}

constexpr DistConfig kBlocking{DistConfig::Schedule::kBlocking};
constexpr DistConfig kLookahead{DistConfig::Schedule::kLookahead};
constexpr DistConfig kTaskDag{DistConfig::Schedule::kTaskDag};
constexpr DistConfig kAllConfigs[] = {kBlocking, kLookahead, kTaskDag};

// (rank count, mapping strategy): kSubtree1d is the 1-D layout (pc = 1).
class ScheduleIdentityP
    : public ::testing::TestWithParam<std::tuple<int, MappingStrategy>> {};

TEST_P(ScheduleIdentityP, AllConfigsBitwiseIdenticalWithEqualVolume) {
  const auto [p, strategy] = GetParam();
  const SparseMatrix a = grid_laplacian_2d(13, 12, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, p, strategy, 8, 1e3);
  const DistFactorResult base = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, {}, kBlocking);
  ASSERT_TRUE(base.status.ok());
  for (const DistConfig& config : kAllConfigs) {
    const DistFactorResult r = distributed_factor(
        sym, map, {}, FactorKind::kCholesky, {}, {}, {}, config);
    ASSERT_TRUE(r.status.ok());
    expect_factors_bitwise_equal(sym, base.factor, r.factor);
    // Same entries cross the wire under every schedule.
    EXPECT_EQ(r.extend_add_bytes, base.extend_add_bytes);
  }
}

TEST_P(ScheduleIdentityP, LookaheadHealsFaultsBitwiseIdentical) {
  const auto [p, strategy] = GetParam();
  const SparseMatrix a = grid_laplacian_2d(13, 12, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, p, strategy, 8, 1e3);
  const DistFactorResult clean = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, {}, kBlocking);
  ASSERT_TRUE(clean.status.ok());
  mpsim::FaultPlan faults;
  faults.seed = 4242 + static_cast<std::uint64_t>(p);
  faults.drop_rate = 0.05;
  faults.delay_rate = 0.05;
  faults.duplicate_rate = 0.02;
  for (const DistConfig& config : kAllConfigs) {
    const DistFactorResult faulty = distributed_factor(
        sym, map, {}, FactorKind::kCholesky, {}, faults, {}, config);
    ASSERT_TRUE(faulty.status.ok()) << faulty.status.to_string();
    expect_factors_bitwise_equal(sym, clean.factor, faulty.factor);
  }
}

// The fan-both streams ride the same fault-path wire format as everything
// else: a flipped bit in a stream payload must be caught by the wire
// checksum and healed by the retry loop, leaving the factor bitwise
// identical.
TEST_P(ScheduleIdentityP, TaskDagHealsWireBitFlipsBitwiseIdentical) {
  const auto [p, strategy] = GetParam();
  const SparseMatrix a = grid_laplacian_2d(13, 12, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = build_front_map(sym, p, strategy, 8, 1e3);
  const DistFactorResult clean = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, {}, kBlocking);
  ASSERT_TRUE(clean.status.ok());
  mpsim::FaultPlan faults;
  faults.seed = 77;
  // One wire flip per rank, early, so child → parent stream traffic is hit.
  for (int r = 0; r < p; ++r) {
    faults.bit_flips.push_back({r, 0.0, /*site=*/0, /*word=*/1, /*bit=*/62});
  }
  const DistFactorResult healed = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, {}, kTaskDag);
  ASSERT_TRUE(healed.status.ok()) << healed.status.to_string();
  expect_factors_bitwise_equal(sym, clean.factor, healed.factor);
}

// Adversarial arrival order: freeze one child-side rank mid-run so the
// streams it feeds lag behind its siblings'. The parent's wait_any pool
// must buffer the early arrivals and still merge every panel in the fixed
// (child, source-rank) order — bitwise identity — while the run stats
// record that reordering actually happened, and the virtual makespan stays
// a pure function of the schedule (re-running the identical configuration
// reproduces it exactly).
TEST(ScheduleIdentity, TaskDagOutOfOrderArrivalsDeterministic) {
  const int p = 8;
  // 3-D fronts are wide enough that parent pools interleave several
  // (child, source) stream channels across panels — the 2-D grids the
  // other identity tests use drain almost in posting order.
  const SparseMatrix a = grid_laplacian_3d(8, 8, 8, 7);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map =
      build_front_map(sym, p, MappingStrategy::kSubtree2d, 8, 1e3);
  const DistFactorResult clean = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, {}, kBlocking);
  ASSERT_TRUE(clean.status.ok());
  const DistFactorResult probe = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, {}, kTaskDag);
  ASSERT_TRUE(probe.status.ok());
  count_t pool_waits = 0;
  for (const count_t c : probe.run.wait_any_calls) pool_waits += c;
  EXPECT_GT(pool_waits, 0);

  // Stall rank 1 (a leaf-subtree owner feeding the upper fronts) early and
  // long: everything it sends afterwards arrives far behind its siblings.
  mpsim::FaultPlan faults;
  faults.stalls.push_back({/*rank=*/1, /*at=*/0.0, /*duration=*/0.05});
  const DistFactorResult stalled = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, {}, kTaskDag);
  ASSERT_TRUE(stalled.status.ok()) << stalled.status.to_string();
  expect_factors_bitwise_equal(sym, clean.factor, stalled.factor);
  EXPECT_GT(stalled.run.messages_completed_out_of_order, 0);

  const DistFactorResult again = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, {}, kTaskDag);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.run.makespan, stalled.run.makespan);
  EXPECT_EQ(again.run.messages_completed_out_of_order,
            stalled.run.messages_completed_out_of_order);
  expect_factors_bitwise_equal(sym, stalled.factor, again.factor);
}

// Crash + spare recovery composes with every schedule: each posted receive
// (panel blocks, the collective extend-add messages, the fan-both stream
// pool) completes inside its front, so the spare resumes from the same
// protocol state at every checkpoint boundary.
TEST(ScheduleIdentity, EveryScheduleRecoversFromCrashBitwiseIdentical) {
  const int p = 4;
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map =
      build_front_map(sym, p, MappingStrategy::kSubtree2d, 8, 1e3);
  ResiliencePolicy resilience;
  resilience.buddy_checkpoint = true;
  resilience.checkpoint_interval = 4;

  const DistFactorResult clean = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, {}, kBlocking);
  ASSERT_TRUE(clean.status.ok());

  for (const DistConfig& config : kAllConfigs) {
    SCOPED_TRACE(static_cast<int>(config.schedule));
    // Probe the resilient run for the victim's busy time, then crash it
    // mid-execution with one spare standing by.
    const int victim = p / 2;
    const DistFactorResult probe =
        distributed_factor(sym, map, {}, FactorKind::kCholesky, {}, {},
                           resilience, config);
    ASSERT_TRUE(probe.status.ok());
    const double at =
        0.5 * probe.run.rank_time[static_cast<std::size_t>(victim)];
    ASSERT_GT(at, 0.0);
    mpsim::FaultPlan faults;
    faults.crashes.push_back({victim, at});
    faults.spare_ranks = 1;

    const DistFactorResult crashed =
        distributed_factor(sym, map, {}, FactorKind::kCholesky, {}, faults,
                           resilience, config);
    ASSERT_TRUE(crashed.status.ok()) << crashed.status.to_string();
    EXPECT_EQ(crashed.run.ranks_recovered, 1);
    expect_factors_bitwise_equal(sym, clean.factor, crashed.factor);
  }
}

// Fan-both stream channels are keyed by the child supernode, so a front
// with tens of thousands of children still gets distinct tags that fit an
// int. An arrow matrix (diagonal plus a full last row) makes a hub front
// with one leaf child per column; a key that also multiplied in the child's
// position among its siblings overflowed past ~16,400 children.
TEST(ScheduleIdentity, TaskDagManyChildrenStreamTagsInRange) {
  constexpr index_t n = 17000;
  TripletBuilder b(n, n);
  for (index_t j = 0; j + 1 < n; ++j) {
    b.add(j, j, 2.0);
    b.add(n - 1, j, -1.0);
  }
  b.add(n - 1, n - 1, static_cast<real_t>(n));
  const SymbolicFactor sym = analyze(b.build());
  const index_t hub = sym.n_supernodes - 1;
  index_t hub_children = 0;
  for (index_t s = 0; s < hub; ++s) hub_children += sym.sn_parent[s] == hub;
  ASSERT_GE(hub_children, 16400);
  const FrontMap map =
      build_front_map(sym, 2, MappingStrategy::kSubtree2d, 8, 1e3);
  const DistFactorResult base = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, {}, kBlocking);
  ASSERT_TRUE(base.status.ok());
  const DistFactorResult dag = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, {}, kTaskDag);
  ASSERT_TRUE(dag.status.ok()) << dag.status.to_string();
  expect_factors_bitwise_equal(sym, base.factor, dag.factor);
  EXPECT_EQ(dag.extend_add_bytes, base.extend_add_bytes);
}

TEST(ScheduleIdentity, LdltPerturbationCountsIdenticalAcrossConfigs) {
  const index_t kDecoupled = 3;
  const SparseMatrix a =
      append_decoupled_rows(grid_laplacian_2d(9, 8, 5), kDecoupled, 1e-30);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map =
      build_front_map(sym, 4, MappingStrategy::kSubtree2d, 8, 1e3);
  PivotPolicy boosted;
  boosted.boost = true;
  const DistFactorResult base = distributed_factor(
      sym, map, {}, FactorKind::kLdlt, boosted, {}, {}, kBlocking);
  ASSERT_TRUE(base.status.ok());
  EXPECT_EQ(base.status.perturbations, kDecoupled);
  for (const DistConfig& config : kAllConfigs) {
    const DistFactorResult r = distributed_factor(
        sym, map, {}, FactorKind::kLdlt, boosted, {}, {}, config);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.status.perturbations, kDecoupled);
    expect_factors_bitwise_equal(sym, base.factor, r.factor);
  }
}

// Virtual time and traffic of every schedule, pinned to recorded values: a
// rework of the block-column loop or the receive protocol that keeps each
// rank's sends and waits in place moves none of them. Counts match exactly;
// the virtual clocks within 1e-12 relative, since a PARFACT_NATIVE build
// may contract α + bytes·β into an FMA. max_in_flight_messages is left
// out: it depends on host thread timing.
struct PinnedRun {
  count_t messages, bytes, extend_add_bytes, wait_any_calls, out_of_order,
      retransmits;
  double makespan, idle_wait_seconds;
};

TEST(ScheduleIdentity, PinnedVirtualTimeAndTraffic) {
  struct Case {
    const char* name;
    SparseMatrix a;
    int p;
    FactorKind kind;
    bool faults;
    PinnedRun want[3];  ///< in kAllConfigs order
  };
  const Case cases[] = {
      {"2-D grid 13x12", grid_laplacian_2d(13, 12, 5), 4,
       FactorKind::kCholesky, false,
       {{200, 42704, 6552, 0, 0, 0, 0.00045174600000000037,
         0.00075223350000000011},
        {200, 42704, 6552, 0, 0, 0, 0.00045066600000000039,
         0.00074791350000000018},
        {92, 42704, 6552, 27, 0, 0, 0.00031580100000000048,
         0.00074840850000000136}}},
      {"3-D grid 10^3", grid_laplacian_3d(10, 10, 10, 7), 8,
       FactorKind::kCholesky, false,
       {{8834, 3817368, 1129080, 0, 0, 0, 0.019706885000001045,
         0.1068183840000046},
        {8834, 3817368, 1129080, 0, 0, 0, 0.019232173000000768,
         0.10302068800000289},
        {8631, 3817368, 1129080, 2221, 1342, 0, 0.019130919000000749,
         0.10322565600000271}}},
      {"boosted LDLT", append_decoupled_rows(grid_laplacian_2d(9, 8, 5), 3,
                                             1e-30),
       4, FactorKind::kLdlt, false,
       {{90, 19408, 1440, 0, 0, 0, 0.00020579250000000017,
         0.00034542450000000027},
        {90, 19408, 1440, 0, 0, 0, 0.00020576050000000015,
         0.00034529650000000021},
        {42, 19408, 1440, 12, 0, 0, 0.00014576449999999998,
         0.00034530950000000009}}},
      {"2-D grid 13x12, faults", grid_laplacian_2d(13, 12, 5), 4,
       FactorKind::kCholesky, true,
       {{200, 45904, 6552, 0, 0, 8, 0.0098023084999999937,
         0.034323222499999993},
        {200, 45904, 6552, 0, 0, 8, 0.0098017084999999938,
         0.034320822500000001},
        {92, 44176, 6552, 27, 0, 5, 0.005717827499999998,
         0.019832726500000002}}},
  };
  for (const Case& c : cases) {
    const SymbolicFactor sym = analyze(c.a);
    const FrontMap map =
        build_front_map(sym, c.p, MappingStrategy::kSubtree2d, 8, 1e3);
    PivotPolicy pivot;
    pivot.boost = c.kind == FactorKind::kLdlt;
    mpsim::FaultPlan faults;
    if (c.faults) {
      faults.seed = 4242 + static_cast<std::uint64_t>(c.p);
      faults.drop_rate = 0.05;
      faults.delay_rate = 0.05;
      faults.duplicate_rate = 0.02;
    }
    for (std::size_t k = 0; k < std::size(kAllConfigs); ++k) {
      SCOPED_TRACE(std::string(c.name) + ", schedule " + std::to_string(k));
      const DistFactorResult r = distributed_factor(
          sym, map, {}, c.kind, pivot, faults, {}, kAllConfigs[k]);
      ASSERT_TRUE(r.status.ok()) << r.status.to_string();
      const PinnedRun& want = c.want[k];
      count_t wait_any_calls = 0;
      for (const count_t v : r.run.wait_any_calls) wait_any_calls += v;
      EXPECT_EQ(r.run.total_messages, want.messages);
      EXPECT_EQ(r.run.total_bytes, want.bytes);
      EXPECT_EQ(r.extend_add_bytes, want.extend_add_bytes);
      EXPECT_EQ(wait_any_calls, want.wait_any_calls);
      EXPECT_EQ(r.run.messages_completed_out_of_order, want.out_of_order);
      EXPECT_EQ(r.run.total_retransmits, want.retransmits);
      EXPECT_NEAR(r.run.makespan, want.makespan, 1e-12 * want.makespan);
      EXPECT_NEAR(r.run.idle_wait_seconds, want.idle_wait_seconds,
                  1e-12 * want.idle_wait_seconds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ScheduleIdentityP,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(MappingStrategy::kSubtree2d,
                                         MappingStrategy::kSubtree1d)));

}  // namespace
}  // namespace parfact
