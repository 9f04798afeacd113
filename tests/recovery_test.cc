// Tests for rank-crash fault tolerance: crash injection in mpsim plus
// buddy-checkpointed recovery in the distributed factorization. The
// acceptance bar throughout: a crash covered by a spare rank must yield a
// factor bitwise-identical to the fault-free run (same pivot-perturbation
// counts included); a crash with no spare must end in a diagnosed
// kRankFailure, never a hang or a wrong answer.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/checkpoint.h"
#include "dist/dist_factor.h"
#include "dist/dist_solve.h"
#include "dist/mapping.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/error.h"
#include "support/prng.h"
#include "support/status.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {
namespace {

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

// A Laplacian with `count` decoupled rows appended; the decoupled pivots
// equal `diag` exactly on every rank, so perturbation counts are
// deterministic (see robustness_test.cc).
SparseMatrix test_matrix(index_t count, real_t diag) {
  return append_decoupled_rows(grid_laplacian_2d(9, 8, 5), count, diag);
}

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

// Small blocks and grain so the 9x8 test problems actually spread across
// every rank instead of collapsing onto rank 0.
FrontMap spread_map(const SymbolicFactor& sym, int p) {
  return build_front_map(sym, p, MappingStrategy::kSubtree2d, 8, 1e3);
}

ResiliencePolicy buddy_policy(index_t interval) {
  ResiliencePolicy r;
  r.buddy_checkpoint = true;
  r.checkpoint_interval = interval;
  return r;
}

// Probes the clean resilient run and returns a FaultPlan that crashes
// `rank` at `frac` of that rank's own busy time, with one spare — so the
// crash reliably fires mid-execution on that rank.
mpsim::FaultPlan crash_at_fraction(const SymbolicFactor& sym,
                                   const FrontMap& map,
                                   const ResiliencePolicy& resilience,
                                   int rank, double frac) {
  const DistFactorResult probe =
      distributed_factor(sym, map, {}, FactorKind::kCholesky, {}, {},
                         resilience);
  EXPECT_TRUE(probe.status.ok());
  const double at = frac * probe.run.rank_time[static_cast<std::size_t>(rank)];
  EXPECT_GT(at, 0.0) << "rank " << rank << " got no work; pick another rank";
  mpsim::FaultPlan faults;
  faults.crashes.push_back({rank, at});
  faults.spare_ranks = 1;
  return faults;
}

// --- Checkpoint blob codec -------------------------------------------------

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  CheckpointImage image;
  image.next_supernode = 17;
  image.perturbations = 3;
  std::vector<std::byte> payload(41);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 7);
  }
  const std::vector<std::byte> blob = encode_checkpoint(image, payload);
  const CheckpointImage back = decode_checkpoint(blob);
  EXPECT_EQ(back.next_supernode, 17);
  EXPECT_EQ(back.perturbations, 3);
}

TEST(Checkpoint, EmptyBlobDecodesToReplayFromScratch) {
  const CheckpointImage image = decode_checkpoint({});
  EXPECT_EQ(image.next_supernode, 0);
  EXPECT_EQ(image.perturbations, 0);
}

TEST(Checkpoint, CorruptBlobDiagnosed) {
  std::vector<std::byte> blob =
      encode_checkpoint(CheckpointImage{5, 0}, std::vector<std::byte>(16));
  blob.back() = static_cast<std::byte>(std::to_integer<unsigned>(blob.back()) ^
                                       0xffu);
  try {
    (void)decode_checkpoint(blob);
    FAIL() << "expected kDataCorruption";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
  }
  try {
    (void)decode_checkpoint(std::vector<std::byte>(7));  // shorter than header
    FAIL() << "expected kDataCorruption";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
  }
}

TEST(Checkpoint, PolicyValidation) {
  ResiliencePolicy r;
  r.checkpoint_interval = 0;
  try {
    validate_resilience_policy(r);
    FAIL() << "expected kInvalidInput";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
  }
}

// --- Crash recovery in the distributed factorization -----------------------

class RecoveryP : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryP, SingleCrashWithSpareBitwiseIdentical) {
  const int p = GetParam();
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, p);
  const ResiliencePolicy resilience = buddy_policy(4);

  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());

  const int victim = p / 2;
  const mpsim::FaultPlan faults =
      crash_at_fraction(sym, map, resilience, victim, 0.5);
  const DistFactorResult crashed = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, resilience);
  ASSERT_TRUE(crashed.status.ok()) << crashed.status.to_string();
  EXPECT_EQ(crashed.run.rank_crashes, 1);
  EXPECT_EQ(crashed.run.ranks_recovered, 1);
  EXPECT_GT(crashed.run.recovery_overhead_seconds, 0.0);
  EXPECT_GT(crashed.run.checkpoints_stored, 0);
  EXPECT_GT(crashed.run.checkpoint_bytes, 0);
  expect_factors_bitwise_equal(sym, clean.factor, crashed.factor);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RecoveryP, ::testing::Values(2, 4));

TEST(Recovery, CrashBeforeFirstCheckpointReplaysFromScratch) {
  // Without buddy checkpointing the takeover blob is empty and the spare
  // re-executes the victim's entire history; sequence dedup keeps the
  // replayed traffic invisible and the factor stays bitwise identical.
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  const ResiliencePolicy no_ckpt;  // buddy_checkpoint = false

  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());

  const mpsim::FaultPlan faults =
      crash_at_fraction(sym, map, no_ckpt, /*rank=*/1, 0.6);
  const DistFactorResult crashed = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, no_ckpt);
  ASSERT_TRUE(crashed.status.ok()) << crashed.status.to_string();
  EXPECT_EQ(crashed.run.ranks_recovered, 1);
  EXPECT_EQ(crashed.run.checkpoints_stored, 0);
  EXPECT_EQ(crashed.run.checkpoint_bytes, 0);
  expect_factors_bitwise_equal(sym, clean.factor, crashed.factor);
}

TEST(Recovery, CrashAfterRankFinishedNeverFires) {
  // The crash instant lies far past the makespan: the rank completes its
  // program first, so no crash fires and the idle spare is released.
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  const ResiliencePolicy resilience = buddy_policy(4);

  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());

  mpsim::FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, /*at=*/10.0 * clean.run.makespan + 1});
  faults.spare_ranks = 1;
  const DistFactorResult late = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, resilience);
  ASSERT_TRUE(late.status.ok());
  EXPECT_EQ(late.run.rank_crashes, 0);
  EXPECT_EQ(late.run.ranks_recovered, 0);
  EXPECT_EQ(late.run.recovery_overhead_seconds, 0.0);
  expect_factors_bitwise_equal(sym, clean.factor, late.factor);
}

TEST(Recovery, RootFrontParticipantCrashLateInRun) {
  // Crash a rank at 90% of its busy time: for the top-of-tree participant
  // this lands mid-parent-front, after most contributions are in flight.
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  const ResiliencePolicy resilience = buddy_policy(2);

  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());

  // The first participant of the root front (the last supernode).
  const int root_owner = map.rank_begin[static_cast<std::size_t>(
      sym.n_supernodes - 1)];
  const mpsim::FaultPlan faults =
      crash_at_fraction(sym, map, resilience, root_owner, 0.9);
  const DistFactorResult crashed = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, resilience);
  ASSERT_TRUE(crashed.status.ok()) << crashed.status.to_string();
  EXPECT_EQ(crashed.run.ranks_recovered, 1);
  expect_factors_bitwise_equal(sym, clean.factor, crashed.factor);
}

TEST(Recovery, TwoCrashesTwoSparesBothRecovered) {
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  const ResiliencePolicy resilience = buddy_policy(2);

  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());
  const DistFactorResult probe = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, resilience);
  ASSERT_TRUE(probe.status.ok());

  mpsim::FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, 0.4 * probe.run.rank_time[1]});
  faults.crashes.push_back({/*rank=*/2, 0.7 * probe.run.rank_time[2]});
  faults.spare_ranks = 2;
  const DistFactorResult crashed = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, resilience);
  ASSERT_TRUE(crashed.status.ok()) << crashed.status.to_string();
  EXPECT_EQ(crashed.run.rank_crashes, 2);
  EXPECT_EQ(crashed.run.ranks_recovered, 2);
  expect_factors_bitwise_equal(sym, clean.factor, crashed.factor);
}

TEST(Recovery, CrashWithNoSpareDiagnosedNotHung) {
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  const ResiliencePolicy resilience = buddy_policy(4);

  const DistFactorResult probe = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, resilience);
  ASSERT_TRUE(probe.status.ok());

  mpsim::FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, 0.5 * probe.run.rank_time[1]});
  faults.spare_ranks = 0;
  const DistFactorResult result = distributed_factor_checked(
      sym, map, {}, FactorKind::kCholesky, {}, faults, resilience);
  EXPECT_TRUE(result.status.failed());
  EXPECT_EQ(result.status.code, StatusCode::kRankFailure);
  EXPECT_NE(result.status.message.find("crash"), std::string::npos);
}

TEST(Recovery, TwoCrashesOneSpareExhaustedDiagnosed) {
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  const ResiliencePolicy resilience = buddy_policy(4);

  const DistFactorResult probe = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, resilience);
  ASSERT_TRUE(probe.status.ok());

  mpsim::FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, 0.3 * probe.run.rank_time[1]});
  faults.crashes.push_back({/*rank=*/2, 0.6 * probe.run.rank_time[2]});
  faults.spare_ranks = 1;  // second crash exhausts the spares
  const DistFactorResult result = distributed_factor_checked(
      sym, map, {}, FactorKind::kCholesky, {}, faults, resilience);
  EXPECT_TRUE(result.status.failed());
  EXPECT_EQ(result.status.code, StatusCode::kRankFailure);
}

TEST(Recovery, DeterministicReplay) {
  // The same FaultPlan run twice takes the identical recovery path:
  // identical factor, makespan, traffic, and recovery accounting.
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  const ResiliencePolicy resilience = buddy_policy(2);
  const mpsim::FaultPlan faults =
      crash_at_fraction(sym, map, resilience, /*rank=*/2, 0.5);

  const DistFactorResult first = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, resilience);
  const DistFactorResult second = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, resilience);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(first.run.makespan, second.run.makespan);
  EXPECT_EQ(first.run.total_messages, second.run.total_messages);
  EXPECT_EQ(first.run.total_bytes, second.run.total_bytes);
  EXPECT_EQ(first.run.checkpoints_stored, second.run.checkpoints_stored);
  EXPECT_EQ(first.run.ranks_recovered, second.run.ranks_recovered);
  EXPECT_EQ(first.run.recovery_overhead_seconds,
            second.run.recovery_overhead_seconds);
  expect_factors_bitwise_equal(sym, first.factor, second.factor);
}

TEST(Recovery, LdltPerturbationCountsSurviveRecovery) {
  // LDLᵀ with boosted tiny pivots: the recovered run must report exactly
  // the fault-free perturbation count — the crashed incarnation's partial
  // count must neither be lost nor double-counted.
  const SparseMatrix a = test_matrix(/*count=*/4, /*diag=*/1e-30);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  const ResiliencePolicy resilience = buddy_policy(2);
  PivotPolicy pivot;
  pivot.boost = true;

  const DistFactorResult clean = distributed_factor(
      sym, map, {}, FactorKind::kLdlt, pivot, {}, resilience);
  ASSERT_TRUE(clean.status.ok());
  EXPECT_EQ(clean.status.perturbations, 4);

  mpsim::FaultPlan faults;
  faults.crashes.push_back({/*rank=*/1, 0.5 * clean.run.rank_time[1]});
  faults.spare_ranks = 1;
  const DistFactorResult crashed = distributed_factor(
      sym, map, {}, FactorKind::kLdlt, pivot, faults, resilience);
  ASSERT_TRUE(crashed.status.ok()) << crashed.status.to_string();
  EXPECT_EQ(crashed.run.ranks_recovered, 1);
  EXPECT_EQ(crashed.status.perturbations, 4);
  expect_factors_bitwise_equal(sym, clean.factor, crashed.factor);
}

TEST(Recovery, SpillToScratchRoundTrips) {
  // Checkpoints forced through the checksummed scratch path must behave
  // identically to in-memory buddy checkpoints.
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  ResiliencePolicy resilience = buddy_policy(2);
  resilience.spill_to_scratch = true;

  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());

  const mpsim::FaultPlan faults =
      crash_at_fraction(sym, map, resilience, /*rank=*/1, 0.5);
  const DistFactorResult crashed = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, faults, resilience);
  ASSERT_TRUE(crashed.status.ok()) << crashed.status.to_string();
  EXPECT_EQ(crashed.run.ranks_recovered, 1);
  EXPECT_GT(crashed.run.checkpoints_stored, 0);
  expect_factors_bitwise_equal(sym, clean.factor, crashed.factor);
}

// --- Guard rails ------------------------------------------------------------

TEST(Recovery, DistributedSolveRejectsCrashPlans) {
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 2);
  const DistFactorResult f = distributed_factor(sym, map);
  ASSERT_TRUE(f.status.ok());
  const std::vector<real_t> b = random_vector(sym.n, 7);
  mpsim::FaultPlan faults;
  faults.crashes.push_back({/*rank=*/0, /*at=*/1.0});
  faults.spare_ranks = 1;
  try {
    (void)distributed_solve(sym, map, f.factor, b, /*nrhs=*/1, {}, faults);
    FAIL() << "expected kInvalidInput";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
  }
}

TEST(Recovery, InvalidResiliencePolicyRejected) {
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 2);
  ResiliencePolicy bad;
  bad.buddy_checkpoint = true;
  bad.checkpoint_interval = 0;
  const DistFactorResult result = distributed_factor_checked(
      sym, map, {}, FactorKind::kCholesky, {}, {}, bad);
  EXPECT_TRUE(result.status.failed());
  EXPECT_EQ(result.status.code, StatusCode::kInvalidInput);
}

}  // namespace
}  // namespace parfact
