// Tests for the block-level schedule replay (perf module): agreement with
// the real mpsim execution at small P, sane scaling behaviour at large P.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dist/dist_factor.h"
#include "dist/dist_solve.h"
#include "api/solver.h"
#include "perf/dag_sim.h"
#include "sparse/gen.h"
#include "support/prng.h"

namespace parfact {
namespace {

class PerfAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, DistConfig::Schedule>> {
};

std::string agreement_name(
    const ::testing::TestParamInfo<PerfAgreementTest::ParamType>& info) {
  static constexpr const char* kNames[] = {"Blocking", "Lookahead",
                                           "TaskDag"};
  return std::to_string(std::get<0>(info.param)) + "ranks" +
         kNames[static_cast<int>(std::get<1>(info.param))];
}

// Every executed schedule is pinned against its own replay.
TEST_P(PerfAgreementTest, FactorTimeTracksMpsim) {
  const auto [p, schedule] = GetParam();
  const DistConfig config{schedule};
  const SparseMatrix a = grid_laplacian_3d(10, 10, 10, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const FrontMap map = build_front_map(sym, p, MappingStrategy::kSubtree2d);
  const mpsim::MachineModel model{};
  const DistFactorResult r = distributed_factor(
      sym, map, model, FactorKind::kCholesky, {}, {}, {}, config);
  ASSERT_TRUE(r.status.ok());
  const double real = r.run.makespan;
  const double sim = simulate_factor_time(sym, map, model, config).makespan;
  // The replay batches arrivals per block column, so it is an approximation;
  // it must stay within a factor of ~2.5 of the executed schedule.
  EXPECT_GT(sim, real / 2.5) << "executed " << real << " vs replay " << sim;
  EXPECT_LT(sim, real * 2.5) << "executed " << real << " vs replay " << sim;
}

INSTANTIATE_TEST_SUITE_P(
    RanksBySchedule, PerfAgreementTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(DistConfig::Schedule::kBlocking,
                                         DistConfig::Schedule::kLookahead,
                                         DistConfig::Schedule::kTaskDag)),
    agreement_name);

TEST(Perf, SerialTimeEqualsComputeTime) {
  const SparseMatrix a = grid_laplacian_2d(25, 25, 5);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const FrontMap map = build_front_map(sym, 1, MappingStrategy::kSubtree2d);
  const PerfResult r = simulate_factor_time(sym, map, {});
  EXPECT_EQ(r.total_messages, 0);
  // Makespan = compute + local memory traffic; compute dominates.
  EXPECT_GE(r.makespan, r.compute_total);
  EXPECT_LT(r.makespan, r.compute_total * 1.5);
}

TEST(Perf, StrongScalingCurveIsSane) {
  const SparseMatrix a = grid_laplacian_3d(14, 14, 14, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const mpsim::MachineModel model{};
  double prev = 0.0;
  std::vector<double> times;
  for (int p : {1, 4, 16, 64, 256}) {
    const FrontMap map = build_front_map(sym, p, MappingStrategy::kSubtree2d);
    const PerfResult r = simulate_factor_time(sym, map, model);
    times.push_back(r.makespan);
    EXPECT_LE(r.efficiency(p), 1.0 + 1e-9) << "p=" << p;
    prev = r.makespan;
  }
  (void)prev;
  // Speedup must be substantial early and monotone-ish: t(16) << t(1).
  EXPECT_LT(times[2], times[0] / 4.0);
  // At very large p on this small matrix, time must stop improving much
  // (saturation), i.e. t(256) > t(64) * 0.3.
  EXPECT_GT(times[4], times[3] * 0.3);
}

TEST(Perf, TwoDBeatsOneDAtScale) {
  const SparseMatrix a = grid_laplacian_3d(14, 14, 14, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const mpsim::MachineModel model{};
  const int p = 256;
  const double t2d = simulate_factor_time(
      sym, build_front_map(sym, p, MappingStrategy::kSubtree2d), model)
      .makespan;
  const double t1d = simulate_factor_time(
      sym, build_front_map(sym, p, MappingStrategy::kSubtree1d), model)
      .makespan;
  EXPECT_LT(t2d, t1d);
}

TEST(Perf, SubtreeBeatsFlatMapping) {
  const SparseMatrix a = grid_laplacian_2d(60, 60, 5);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const mpsim::MachineModel model{};
  const int p = 64;
  const PerfResult sub = simulate_factor_time(
      sym, build_front_map(sym, p, MappingStrategy::kSubtree2d), model);
  const PerfResult flat = simulate_factor_time(
      sym, build_front_map(sym, p, MappingStrategy::kFlat), model);
  EXPECT_LT(sub.makespan, flat.makespan);
  EXPECT_LT(sub.total_messages, flat.total_messages);
}

TEST(Perf, LargeRankCountRunsFast) {
  const SparseMatrix a = grid_laplacian_3d(12, 12, 12, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const FrontMap map =
      build_front_map(sym, 4096, MappingStrategy::kSubtree2d);
  const PerfResult r = simulate_factor_time(sym, map, {});
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GT(r.total_messages, 0);
}

TEST(Perf, MemoryPerRankShrinks) {
  const SparseMatrix a = grid_laplacian_3d(12, 12, 12, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const count_t m1 = simulate_factor_time(
      sym, build_front_map(sym, 1, MappingStrategy::kSubtree2d), {})
      .peak_rank_bytes;
  const count_t m16 = simulate_factor_time(
      sym, build_front_map(sym, 16, MappingStrategy::kSubtree2d), {})
      .peak_rank_bytes;
  const count_t m256 = simulate_factor_time(
      sym, build_front_map(sym, 256, MappingStrategy::kSubtree2d), {})
      .peak_rank_bytes;
  EXPECT_LT(m16, m1);
  EXPECT_LT(m256, m16);
}

TEST(Perf, SolveTimeScalesAndIsCheaperThanFactor) {
  const SparseMatrix a = grid_laplacian_3d(12, 12, 12, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const mpsim::MachineModel model{};
  const FrontMap m4 = build_front_map(sym, 4, MappingStrategy::kSubtree2d);
  const PerfResult f = simulate_factor_time(sym, m4, model);
  const PerfResult s1 = simulate_solve_time(sym, m4, model, 1);
  EXPECT_LT(s1.makespan, f.makespan);
  // More RHS => more solve work.
  const PerfResult s16 = simulate_solve_time(sym, m4, model, 16);
  EXPECT_GT(s16.makespan, s1.makespan);
}

TEST(Perf, LookaheadBeatsBlockingAtScale) {
  const SparseMatrix a = grid_laplacian_3d(14, 14, 14, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const mpsim::MachineModel model{};
  constexpr DistConfig blocking{DistConfig::Schedule::kBlocking};
  constexpr DistConfig look{DistConfig::Schedule::kLookahead};
  bool any_win = false;
  for (int p : {16, 64, 256}) {
    const FrontMap map = build_front_map(sym, p, MappingStrategy::kSubtree2d);
    const PerfResult b = simulate_factor_time(sym, map, model, blocking);
    const PerfResult l = simulate_factor_time(sym, map, model, look);
    // Overlap can only help: the lookahead replay never stalls earlier than
    // the blocking one.
    EXPECT_LE(l.makespan, b.makespan * (1.0 + 1e-9)) << "p=" << p;
    EXPECT_LE(l.idle_wait_seconds, b.idle_wait_seconds + 1e-12) << "p=" << p;
    if (l.makespan < b.makespan) any_win = true;
  }
  EXPECT_TRUE(any_win) << "lookahead never beat blocking at any P";
}

TEST(Perf, TaskDagBeatsLookaheadAtScale) {
  const SparseMatrix a = grid_laplacian_3d(14, 14, 14, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const mpsim::MachineModel model{};
  constexpr DistConfig look{DistConfig::Schedule::kLookahead};
  constexpr DistConfig dag{DistConfig::Schedule::kTaskDag};
  bool any_win = false;
  for (int p : {64, 256, 1024}) {
    const FrontMap map = build_front_map(sym, p, MappingStrategy::kSubtree2d);
    const PerfResult l = simulate_factor_time(sym, map, model, look);
    const PerfResult t = simulate_factor_time(sym, map, model, dag);
    // The per-panel floors never exceed the collective extend-add barrier,
    // so the task-DAG replay can only remove idle time, never add it.
    EXPECT_LE(t.makespan, l.makespan * (1.0 + 1e-9)) << "p=" << p;
    EXPECT_LE(t.idle_wait_seconds, l.idle_wait_seconds + 1e-12) << "p=" << p;
    EXPECT_GE(t.efficiency(p), l.efficiency(p) * (1.0 - 1e-9)) << "p=" << p;
    if (t.makespan < l.makespan) any_win = true;
    // Same schedule volume, different timing: message/byte counts match.
    EXPECT_EQ(t.total_messages, l.total_messages) << "p=" << p;
    EXPECT_EQ(t.total_bytes, l.total_bytes) << "p=" << p;
  }
  EXPECT_TRUE(any_win) << "task-DAG replay never beat lookahead at any P";
}

// At one rank the compute charge is the factorization's flop count at the
// model rate, whatever the block size: every update block is charged the
// kernel it runs, and a Cholesky diagonal block runs SYRK on its lower
// triangle only. Both the executed schedules and the replay are held to it.
TEST(Perf, OneRankComputeChargeIsTheFlopCountAtEveryBlockSize) {
  const SparseMatrix a = grid_laplacian_3d(20, 20, 20, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const mpsim::MachineModel model{};
  const double ideal = static_cast<double>(sym.total_flops) / model.flop_rate;
  for (const index_t block : {16, 48, 128, 256}) {
    const FrontMap map =
        build_front_map(sym, 1, MappingStrategy::kSubtree2d, block);
    for (const auto schedule :
         {DistConfig::Schedule::kBlocking, DistConfig::Schedule::kLookahead}) {
      const DistFactorResult r =
          distributed_factor(sym, map, model, FactorKind::kCholesky, {}, {},
                             {}, DistConfig{schedule});
      ASSERT_TRUE(r.status.ok());
      EXPECT_NEAR(r.run.rank_compute[0], ideal, 0.01 * ideal)
          << "block " << block << ", schedule "
          << static_cast<int>(schedule);
    }
    const PerfResult sim = simulate_factor_time(sym, map, model);
    EXPECT_NEAR(sim.compute_total, ideal, 0.01 * ideal) << "block " << block;
  }
}

// The replay's own output, pinned for every schedule: counts exactly, times
// within 1e-12 relative (a -march=native build may contract differently).
// A change that moves them on purpose re-records them.
TEST(Perf, PinnedReplayTimeAndTraffic) {
  struct Pinned {
    double makespan, idle_wait_seconds;
    count_t messages, bytes, peak_rank_bytes;
  };
  const struct {
    int p;
    Pinned want[3];  ///< kBlocking, kLookahead, kTaskDag
  } cases[] = {
      {16,
       {{0.0025825190189997871, 0.026497501367687071, 1780, 6412984, 237600},
        {0.0025465750189997876, 0.025922397367687079, 1780, 6412984, 237600},
        {0.0024243016904761903, 0.02396602411130952, 1780, 6412984,
         237600}}},
      {1024,
       {{0.0041235906827723394, 2.367918269726383, 300609, 43983080, 89993},
        {0.0041235906827723394, 2.367918269726383, 300609, 43983080, 89993},
        {0.0041185329599407357, 2.3507984552968275, 300609, 43983080,
         89993}}},
  };
  constexpr DistConfig::Schedule kSchedules[] = {
      DistConfig::Schedule::kBlocking, DistConfig::Schedule::kLookahead,
      DistConfig::Schedule::kTaskDag};
  const SparseMatrix a = grid_laplacian_3d(12, 12, 12, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  for (const auto& c : cases) {
    const FrontMap map =
        build_front_map(sym, c.p, MappingStrategy::kSubtree2d, 48);
    for (int k = 0; k < 3; ++k) {
      SCOPED_TRACE("P=" + std::to_string(c.p) + ", schedule " +
                   std::to_string(k));
      const PerfResult r =
          simulate_factor_time(sym, map, {}, DistConfig{kSchedules[k]});
      const Pinned& want = c.want[k];
      EXPECT_NEAR(r.makespan, want.makespan, 1e-12 * want.makespan);
      EXPECT_NEAR(r.idle_wait_seconds, want.idle_wait_seconds,
                  1e-12 * want.idle_wait_seconds);
      EXPECT_EQ(r.total_messages, want.messages);
      EXPECT_EQ(r.total_bytes, want.bytes);
      EXPECT_EQ(r.peak_rank_bytes, want.peak_rank_bytes);
    }
  }
}

TEST(Perf, TaskDagMatchesSerialAtOneRank) {
  // With one rank there are no messages, hence no floors: all three
  // schedules must report identical makespans.
  const SparseMatrix a = grid_laplacian_2d(25, 25, 5);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const FrontMap map = build_front_map(sym, 1, MappingStrategy::kSubtree2d);
  constexpr DistConfig dag{DistConfig::Schedule::kTaskDag};
  const PerfResult t = simulate_factor_time(sym, map, {}, dag);
  const PerfResult l = simulate_factor_time(sym, map, {});
  EXPECT_EQ(t.makespan, l.makespan);
  EXPECT_EQ(t.total_messages, 0);
  EXPECT_EQ(t.idle_wait_seconds, 0.0);
}

// The executed kTaskDag schedule actually exercises the wait_any pool
// (its replay agreement is pinned by PerfAgreementTest).
TEST(Perf, DistFactorExecutesTaskDagSchedule) {
  const SparseMatrix a = grid_laplacian_2d(16, 16, 5);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const FrontMap map =
      build_front_map(sym, 4, MappingStrategy::kSubtree2d, 8, 1e3);
  constexpr DistConfig dag{DistConfig::Schedule::kTaskDag};
  const DistFactorResult r = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, {}, dag);
  ASSERT_TRUE(r.status.ok());
  count_t wait_any_total = 0;
  for (const count_t c : r.run.wait_any_calls) wait_any_total += c;
  EXPECT_GT(wait_any_total, 0);
}

TEST(Perf, OverlapStatsAreConsistent) {
  const SparseMatrix a = grid_laplacian_3d(12, 12, 12, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const FrontMap map = build_front_map(sym, 64, MappingStrategy::kSubtree2d);
  const PerfResult r = simulate_factor_time(sym, map, {});
  EXPECT_GT(r.idle_wait_seconds, 0.0);  // 64 ranks cannot avoid all stalls
  EXPECT_GE(r.overlap_efficiency, 0.0);
  EXPECT_LE(r.overlap_efficiency, 1.0);
  // Serial run: nothing to wait for.
  const FrontMap m1 = build_front_map(sym, 1, MappingStrategy::kSubtree2d);
  const PerfResult s = simulate_factor_time(sym, m1, {});
  EXPECT_EQ(s.idle_wait_seconds, 0.0);
  EXPECT_EQ(s.overlap_efficiency, 1.0);
}

TEST(Perf, SolveTimeTracksMpsim) {
  const SparseMatrix a = grid_laplacian_3d(8, 8, 8, 7);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const mpsim::MachineModel model{};
  for (int p : {2, 8}) {
    const FrontMap map = build_front_map(sym, p, MappingStrategy::kSubtree2d);
    const auto dist = distributed_factor(sym, map, model);
    Prng rng(1);
    std::vector<real_t> b(static_cast<std::size_t>(sym.n));
    for (auto& v : b) v = rng.next_real(-1, 1);
    const double real =
        distributed_solve(sym, map, dist.factor, b, 1, model).run.makespan;
    const double sim = simulate_solve_time(sym, map, model, 1).makespan;
    EXPECT_GT(sim, real / 4.0) << "p=" << p;
    EXPECT_LT(sim, real * 4.0) << "p=" << p;
  }
}

}  // namespace
}  // namespace parfact
