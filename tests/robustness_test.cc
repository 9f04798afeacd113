// Tests for the PR-2 robustness layer: breakdown-tolerant factorization
// (static pivoting + Status reporting) across every engine, the Solver's
// direct -> refined -> IC(0)-CG escalation, and fault-healing distributed
// execution (factor bitwise-identical under injected message faults, clean
// diagnosed failure when the link is unusable).
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/service.h"
#include "api/solver.h"
#include "baseline/iccg.h"
#include "baseline/left_looking.h"
#include "baseline/simplicial.h"
#include "dense/kernels.h"
#include "dist/dist_factor.h"
#include "dist/dist_solve.h"
#include "dist/mapping.h"
#include "mf/governed.h"
#include "mf/multifrontal.h"
#include "mf/ooc.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/error.h"
#include "support/prng.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace parfact {
namespace {

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

// A Laplacian with `count` decoupled rows appended. The decoupled pivots
// equal `diag` exactly in every engine and ordering, so the perturbation
// count is deterministic.
SparseMatrix test_matrix(index_t count, real_t diag) {
  return append_decoupled_rows(grid_laplacian_2d(9, 8, 5), count, diag);
}

PivotPolicy boosted() {
  PivotPolicy pivot;
  pivot.boost = true;
  return pivot;
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

// --- Status type -----------------------------------------------------------

TEST(Status, SuccessAndFailureShape) {
  const Status ok = Status::success();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code, StatusCode::kOk);

  const Status perturbed = Status::success(3);
  EXPECT_TRUE(perturbed.ok());
  EXPECT_FALSE(perturbed.failed());
  EXPECT_EQ(perturbed.code, StatusCode::kPerturbed);
  EXPECT_EQ(perturbed.perturbations, 3);

  const Status bad = Status::failure(StatusCode::kBreakdown, "boom", 7);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.failed());
  EXPECT_EQ(bad.failed_supernode, 7);
  EXPECT_NE(bad.to_string().find("breakdown"), std::string::npos);
  EXPECT_NE(bad.to_string().find("boom"), std::string::npos);
}

// --- Static pivoting: dense kernels ---------------------------------------

TEST(PivotBoost, LdltBoostPreservesPivotSign) {
  const index_t n = 3;
  std::vector<real_t> buf(static_cast<std::size_t>(n) * n, 0.0);
  MatrixView a{buf.data(), n, n, n};
  a.at(0, 0) = 4.0;
  a.at(1, 1) = 1e-30;
  a.at(2, 2) = -1e-30;
  std::vector<real_t> d(static_cast<std::size_t>(n));
  PivotBoost boost{1e-8};
  ASSERT_EQ(ldlt_lower(a, d, &boost), kNone);
  EXPECT_EQ(boost.count, 2);
  EXPECT_DOUBLE_EQ(d[0], 4.0);
  EXPECT_DOUBLE_EQ(d[1], 1e-8);    // boosted, positive stays positive
  EXPECT_DOUBLE_EQ(d[2], -1e-8);   // boosted, negative stays negative
}

TEST(PivotBoost, NonFinitePivotIsNeverBoosted) {
  const index_t n = 2;
  std::vector<real_t> buf(static_cast<std::size_t>(n) * n, 0.0);
  MatrixView a{buf.data(), n, n, n};
  a.at(0, 0) = 1.0;
  a.at(1, 1) = std::numeric_limits<real_t>::quiet_NaN();
  PivotBoost boost{1e-8};
  EXPECT_EQ(potrf_lower(a, &boost), 1);
  EXPECT_EQ(boost.count, 0);
}

// --- Identical perturbation counts across every engine ---------------------

TEST(PivotBoost, CountsIdenticalAcrossEngines) {
  const index_t kDecoupled = 3;
  const SparseMatrix a = test_matrix(kDecoupled, 1e-30);  // near-singular SPD
  const SymbolicFactor sym = analyze(a);

  FactorStats serial_stats;
  const CholeskyFactor serial =
      multifrontal_factor(sym, &serial_stats, FactorKind::kCholesky,
                          boosted());
  EXPECT_EQ(serial_stats.pivot_perturbations, kDecoupled);

  ThreadPool pool(4);
  FactorStats par_stats;
  const CholeskyFactor parallel = multifrontal_factor_parallel(
      sym, pool, &par_stats, FactorKind::kCholesky, /*coop_flops=*/1000,
      boosted());
  EXPECT_EQ(par_stats.pivot_perturbations, kDecoupled);
  expect_factors_bitwise_equal(sym, serial, parallel);

  const FrontMap map =
      build_front_map(sym, 4, MappingStrategy::kSubtree2d, 8, 1e3);
  const DistFactorResult dist = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, boosted());
  EXPECT_TRUE(dist.status.ok());
  EXPECT_EQ(dist.status.code, StatusCode::kPerturbed);
  EXPECT_EQ(dist.status.perturbations, kDecoupled);
  expect_factors_bitwise_equal(sym, serial, dist.factor);

  FactorStats ll_stats;
  (void)left_looking_factor(sym, &ll_stats, boosted());
  EXPECT_EQ(ll_stats.pivot_perturbations, kDecoupled);

  SimplicialStats simp_stats;
  (void)simplicial_cholesky(a, &simp_stats, boosted());
  EXPECT_EQ(simp_stats.pivot_perturbations, kDecoupled);

  FactorStats ooc_stats;
  (void)multifrontal_factor_ooc(sym, "/tmp/parfact_robust_ooc.bin",
                                &ooc_stats, boosted());
  EXPECT_EQ(ooc_stats.pivot_perturbations, kDecoupled);

  count_t ic0_perturbations = 0;
  (void)incomplete_cholesky0(a, boosted(), &ic0_perturbations);
  EXPECT_EQ(ic0_perturbations, kDecoupled);
}

TEST(PivotBoost, IndefiniteMatrixRecoversWithBoost) {
  const SparseMatrix a = test_matrix(2, -1.0);  // indefinite
  const SymbolicFactor sym = analyze(a);
  // Without boosting: breakdown throws (the seed behavior).
  EXPECT_THROW((void)multifrontal_factor(sym), Error);
  // With boosting: completes and counts both negative pivots.
  FactorStats stats;
  (void)multifrontal_factor(sym, &stats, FactorKind::kCholesky, boosted());
  EXPECT_EQ(stats.pivot_perturbations, 2);
}

// --- Status-returning front door: the governed ladder, unlimited budget ---

TEST(GovernedUnlimited, ReportsPerturbedStatus) {
  const SparseMatrix a = test_matrix(3, -1.0);
  const SymbolicFactor sym = analyze(a);
  ResourceBudget budget;
  const GovernedFactorizeResult r =
      multifrontal_factorize_governed(sym, budget);
  ASSERT_TRUE(r.factor.has_value());
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.status.code, StatusCode::kPerturbed);
  EXPECT_EQ(r.status.perturbations, 3);
}

TEST(GovernedUnlimited, BreakdownStatusCarriesSupernodeContext) {
  const SparseMatrix a = test_matrix(1, -1.0);
  const SymbolicFactor sym = analyze(a);
  ResourceBudget budget;
  GovernedOptions opts;
  opts.pivot = {};  // boost disabled: breakdown must be diagnosed
  const GovernedFactorizeResult r =
      multifrontal_factorize_governed(sym, budget, opts);
  EXPECT_FALSE(r.factor.has_value());
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(r.status.code, StatusCode::kBreakdown);
  EXPECT_GE(r.status.failed_supernode, 0);
  EXPECT_NE(r.status.message.find("supernode"), std::string::npos);
  EXPECT_NE(r.status.message.find("columns"), std::string::npos);
}

TEST(GovernedUnlimited, PoolSurvivesParallelBreakdown) {
  // The parallel engine must restore its scratch state on the error path:
  // a factorization that throws must not poison the pool or the next run.
  const SparseMatrix bad = test_matrix(1, -1.0);
  const SymbolicFactor bad_sym = analyze(bad);
  ThreadPool pool(4);
  GovernedOptions opts;
  opts.pivot = {};
  opts.pool = &pool;
  ResourceBudget budget;
  const GovernedFactorizeResult failed =
      multifrontal_factorize_governed(bad_sym, budget, opts);
  EXPECT_TRUE(failed.status.failed());

  const SparseMatrix good = grid_laplacian_2d(9, 9, 5);
  const SymbolicFactor good_sym = analyze(good);
  const GovernedFactorizeResult ok =
      multifrontal_factorize_governed(good_sym, budget, opts);
  ASSERT_TRUE(ok.factor.has_value());
  EXPECT_TRUE(ok.status.ok());
  const CholeskyFactor serial = multifrontal_factor(good_sym);
  expect_factors_bitwise_equal(good_sym, serial, *ok.factor);
}

// --- Solver escalation -----------------------------------------------------

TEST(SolverRobust, WellConditionedTakesDirectPath) {
  const SparseMatrix a = grid_laplacian_2d(12, 11, 5);
  Solver solver;
  solver.analyze(a);
  const Status st = solver.factorize();
  EXPECT_EQ(st.code, StatusCode::kOk);
  EXPECT_EQ(solver.report().pivot_perturbations, 0);

  const auto b = random_vector(a.rows, 5);
  const RobustSolveResult r = solver.solve_robust(b);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.path, SolvePath::kDirect);
  EXPECT_LE(r.residual, 1e-10);
}

TEST(SolverRobust, PerturbedFactorizationEscalatesToTarget) {
  // Decoupled pivots at 1e-8 sit below the sqrt(eps)*max|A| threshold, so
  // the factorization is perturbed and the direct solve misses the target;
  // the escalation (refinement, then IC(0)-CG warm-started from the direct
  // answer) must still reach a 1e-10 scaled residual.
  const SparseMatrix a = test_matrix(3, 1e-8);
  Solver solver;
  solver.analyze(a);
  const Status st = solver.factorize();
  EXPECT_EQ(st.code, StatusCode::kPerturbed);
  EXPECT_EQ(st.perturbations, 3);
  EXPECT_EQ(solver.report().pivot_perturbations, 3);

  const auto b = random_vector(a.rows, 17);
  const RobustSolveResult r = solver.solve_robust(b);
  EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_LE(r.residual, 1e-10);
  EXPECT_NE(r.path, SolvePath::kNone);
  // The cheap paths cannot reach the target with a perturbed factor here.
  EXPECT_EQ(r.path, SolvePath::kIterativeFallback);
  EXPECT_GT(r.iterations, 0);
  // Perturbation provenance rides along in the solve status.
  EXPECT_EQ(r.status.perturbations, 3);
}

TEST(SolverRobust, StaticPivotingOffRestoresThrowingBehavior) {
  SolverOptions options;
  options.static_pivoting = false;
  Solver solver(options);
  solver.analyze(test_matrix(1, -1.0));
  EXPECT_THROW((void)solver.factorize(), Error);
}

// --- Zero-norm matrices ----------------------------------------------------
// The boost magnitude sqrt(eps)·max|A| of a zero matrix is 0, and a zero
// magnitude boosts nothing: its zero pivots must break down. "Boosting"
// them to 0 factors diag(0, 0, 0) as kPerturbed and solves it to +inf.

SparseMatrix diagonal(const std::vector<real_t>& d) {
  const auto n = static_cast<index_t>(d.size());
  SparseMatrix a(n, n);
  for (index_t j = 0; j < n; ++j) {
    a.col_ptr[j + 1] = j + 1;
    a.row_ind.push_back(j);
    a.values.push_back(d[static_cast<std::size_t>(j)]);
  }
  return a;
}

/// The StatusCode a run throws as StatusError (kOk if it returns).
template <typename Run>
StatusCode thrown_code(Run&& run) {
  try {
    run();
  } catch (const StatusError& e) {
    return e.status().code;
  }
  return StatusCode::kOk;
}

constexpr FactorKind kBothKinds[] = {FactorKind::kCholesky, FactorKind::kLdlt};

TEST(ZeroNorm, SolverAndServiceReportBreakdown) {
  const SparseMatrix zero = diagonal({0.0, 0.0, 0.0});
  for (const FactorKind kind : kBothKinds) {
    SolverOptions options;
    options.factor_kind = kind;
    ASSERT_TRUE(options.static_pivoting);
    Solver solver(options);
    solver.analyze(zero);
    EXPECT_EQ(thrown_code([&] { (void)solver.factorize(); }),
              StatusCode::kBreakdown)
        << "kind " << static_cast<int>(kind);
    EXPECT_FALSE(solver.has_factor());
  }
  SolverService service;
  SessionId id = 0;
  ASSERT_TRUE(service.open(zero, id).ok());
  EXPECT_EQ(service.factorize(id).code, StatusCode::kBreakdown);
}

TEST(ZeroNorm, EveryEngineReportsBreakdownWithBoostOn) {
  const SparseMatrix zero = diagonal({0.0, 0.0, 0.0});
  EXPECT_EQ(pivot_magnitude(boosted(), zero), 0.0);
  const SymbolicFactor sym = analyze(zero);
  for (const FactorKind kind : kBothKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    EXPECT_EQ(thrown_code([&] {
                (void)multifrontal_factor(sym, nullptr, kind, boosted());
              }),
              StatusCode::kBreakdown);

    ThreadPool pool(2);  // a threads = 2 solver's pool: the task DAG runs
    GovernedOptions opts;
    opts.kind = kind;
    opts.pool = &pool;
    ResourceBudget budget;
    const GovernedFactorizeResult dag =
        multifrontal_factorize_governed(sym, budget, opts);
    EXPECT_EQ(dag.status.code, StatusCode::kBreakdown);
    EXPECT_FALSE(dag.factor.has_value());

    const FrontMap map =
        build_front_map(sym, 1, MappingStrategy::kSubtree2d, 8, 1e3);
    const DistFactorResult dist =
        distributed_factor_checked(sym, map, {}, kind, boosted());
    EXPECT_EQ(dist.status.code, StatusCode::kBreakdown);
  }
  EXPECT_EQ(thrown_code([&] {
              (void)incomplete_cholesky0(zero, boosted());
            }),
            StatusCode::kBreakdown);
}

TEST(ZeroNorm, OneZeroPivotInANonzeroMatrixKeepsItsBoost) {
  const SparseMatrix a = diagonal({0.0, 1.0, 1.0});
  const real_t magnitude =
      std::sqrt(std::numeric_limits<real_t>::epsilon());  // 1.49e-8
  EXPECT_EQ(pivot_magnitude(boosted(), a), magnitude);
  for (const FactorKind kind : kBothKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    SolverOptions options;
    options.factor_kind = kind;
    Solver solver(options);
    solver.analyze(a);
    const Status st = solver.factorize();
    EXPECT_EQ(st.code, StatusCode::kPerturbed);
    EXPECT_EQ(st.perturbations, 1);
    index_t k = 0;
    while (solver.permutation()[k] != 0) ++k;
    if (kind == FactorKind::kCholesky) {
      EXPECT_EQ(solver.factor().entry(k, k), std::sqrt(magnitude));
    } else {
      EXPECT_EQ(solver.factor().diag()[k], magnitude);
    }
    const std::vector<real_t> x = solver.solve(std::vector<real_t>{1, 1, 1});
    EXPECT_TRUE(std::isfinite(x[0]));
    EXPECT_EQ(x[1], 1.0);
    EXPECT_EQ(x[2], 1.0);
  }
}

// --- Verification on a boosted factor --------------------------------------
// A boosted factor misses verify's 1e-8 componentwise bound by design:
// refinement or solve_robust recovers the accuracy. Its residual cannot
// tell corruption from the boost, so the verified solves report
// kNoConvergence without recomputing the factor, and solve_robust
// escalates as it does without verify.

struct VerifyBoostCase {
  const char* name;
  FactorKind kind;
  bool abft;
};

/// A verify = kFull solver factored on test_matrix(3, 1e-8): 3 boosts.
Solver verified_boosted_solver(const SparseMatrix& a, FactorKind kind,
                               bool abft,
                               std::optional<SdcInjection> inject = {}) {
  SolverOptions options;
  options.factor_kind = kind;
  options.abft = abft;
  options.verify = SolverOptions::Verify::kFull;
  options.inject_sdc = inject;
  Solver solver(options);
  solver.analyze(a);
  const Status st = solver.factorize();
  EXPECT_EQ(st.code, StatusCode::kPerturbed);
  EXPECT_EQ(st.perturbations, 3);
  return solver;
}

class VerifyBoostedTest : public ::testing::TestWithParam<VerifyBoostCase> {
};

TEST_P(VerifyBoostedTest, VerifiedSolvesReportNoConvergence) {
  const SparseMatrix a = test_matrix(3, 1e-8);
  Solver solver =
      verified_boosted_solver(a, GetParam().kind, GetParam().abft);
  const count_t recomputed = solver.report().fronts_recomputed;
  const auto b = random_vector(a.rows, 17);
  const auto bb = random_vector(2 * a.rows, 19);
  EXPECT_EQ(thrown_code([&] { (void)solver.solve(b); }),
            StatusCode::kNoConvergence);
  EXPECT_EQ(thrown_code([&] { (void)solver.solve_multi(bb, 2); }),
            StatusCode::kNoConvergence);
  EXPECT_EQ(thrown_code([&] { (void)solver.solve_refined(b); }),
            StatusCode::kNoConvergence);
  EXPECT_EQ(solver.report().fronts_recomputed, recomputed);
  EXPECT_FALSE(solver.report().corruption_detected);
}

TEST_P(VerifyBoostedTest, RobustSolveEscalatesToTarget) {
  const SparseMatrix a = test_matrix(3, 1e-8);
  Solver solver =
      verified_boosted_solver(a, GetParam().kind, GetParam().abft);
  const count_t recomputed = solver.report().fronts_recomputed;
  const RobustSolveResult r = solver.solve_robust(random_vector(a.rows, 17));
  EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_LE(r.residual, 1e-10);
  EXPECT_EQ(r.path, SolvePath::kIterativeFallback);
  EXPECT_EQ(r.status.perturbations, 3);
  EXPECT_EQ(solver.report().fronts_recomputed, recomputed);
  EXPECT_FALSE(solver.report().corruption_detected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VerifyBoostedTest,
    ::testing::Values(
        VerifyBoostCase{"cholesky", FactorKind::kCholesky, false},
        VerifyBoostCase{"cholesky_abft", FactorKind::kCholesky, true},
        VerifyBoostCase{"ldlt", FactorKind::kLdlt, false},
        VerifyBoostCase{"ldlt_abft", FactorKind::kLdlt, true}),
    [](const ::testing::TestParamInfo<VerifyBoostCase>& info) {
      return info.param.name;
    });

TEST(VerifyBoosted, ChecksumsStillRepairWhatTheyLocalize) {
  // A stored-factor flip in a boosted factor: the at-rest checksums find
  // the struck supernode and its subtree is recomputed, so the factor is
  // the clean one again, though the boosted answer still misses the bound.
  const SparseMatrix a = test_matrix(3, 1e-8);
  const auto b = random_vector(a.rows, 23);
  for (const FactorKind kind : kBothKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    Solver clean = verified_boosted_solver(a, kind, true);
    SdcInjection flip;
    flip.site = SdcSite::kStoredFactor;
    flip.supernode = 1;
    Solver struck = verified_boosted_solver(a, kind, true, flip);
    EXPECT_EQ(thrown_code([&] { (void)struck.solve(b); }),
              StatusCode::kNoConvergence);
    EXPECT_TRUE(struck.report().corruption_detected);
    EXPECT_GE(struck.report().fronts_recomputed, 1);
    EXPECT_LT(struck.report().fronts_recomputed,
              struck.report().n_supernodes);
    expect_factors_bitwise_equal(clean.symbolic(), clean.factor(),
                                 struck.factor());
    const std::vector<real_t> want = clean.solve_robust(b).x;
    const std::vector<real_t> got = struck.solve_robust(b).x;
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(real_t)),
              0);
  }
}

// --- Distributed fault tolerance -------------------------------------------

TEST(DistFault, FactorBitwiseIdenticalUnderFaultSweep) {
  const SparseMatrix a = grid_laplacian_2d(13, 12, 5);
  const SymbolicFactor sym = analyze(a);
  count_t total_healed = 0;
  for (const int p : {2, 4, 8}) {
    // Small grain: this little problem must actually be spread across the
    // ranks so messages (and thus faults) exist.
    const FrontMap map =
        build_front_map(sym, p, MappingStrategy::kSubtree2d, 8, 1e3);
    const DistFactorResult clean = distributed_factor(sym, map);
    ASSERT_TRUE(clean.status.ok());
    for (const double drop : {0.02, 0.1}) {
      mpsim::FaultPlan faults;
      faults.seed = 1000 + static_cast<std::uint64_t>(p);
      faults.drop_rate = drop;
      faults.duplicate_rate = drop / 2;
      faults.delay_rate = drop;
      faults.ack_drop_rate = drop / 2;
      const DistFactorResult faulty = distributed_factor(
          sym, map, {}, FactorKind::kCholesky, {}, faults);
      ASSERT_TRUE(faulty.status.ok())
          << "p=" << p << " drop=" << drop << ": "
          << faulty.status.to_string();
      expect_factors_bitwise_equal(sym, clean.factor, faulty.factor);
      total_healed += faulty.run.total_dropped;
      EXPECT_GE(faulty.run.total_retransmits, faulty.run.total_dropped);
    }
  }
  // The sweep must actually have exercised the retry protocol.
  EXPECT_GT(total_healed, 0);
}

TEST(DistFault, SolveHealsUnderFaults) {
  const SparseMatrix a = grid_laplacian_2d(11, 11, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map =
      build_front_map(sym, 4, MappingStrategy::kSubtree2d, 8, 1e3);
  const DistFactorResult factored = distributed_factor(sym, map);
  ASSERT_TRUE(factored.status.ok());
  const std::vector<real_t> b = random_vector(sym.n, 23);

  const DistSolveResult clean =
      distributed_solve(sym, map, factored.factor, b, 1);
  ASSERT_TRUE(clean.status.ok());

  mpsim::FaultPlan faults;
  faults.seed = 77;
  faults.drop_rate = 0.1;
  faults.duplicate_rate = 0.05;
  const DistSolveResult faulty =
      distributed_solve(sym, map, factored.factor, b, 1, {}, faults);
  ASSERT_TRUE(faulty.status.ok());
  ASSERT_EQ(faulty.x.size(), clean.x.size());
  for (std::size_t i = 0; i < clean.x.size(); ++i) {
    ASSERT_EQ(faulty.x[i], clean.x[i]) << "component " << i;
  }
}

TEST(DistFault, UnusableLinkFailsCleanlyNotHangs) {
  const SparseMatrix a = grid_laplacian_2d(9, 9, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map =
      build_front_map(sym, 4, MappingStrategy::kSubtree2d, 8, 1e3);
  mpsim::FaultPlan faults;
  faults.drop_rate = 1.0;  // every copy of every message is lost
  faults.max_retries = 3;
  faults.recv_timeout_host_seconds = 10.0;
  const DistFactorResult r = distributed_factor_checked(
      sym, map, {}, FactorKind::kCholesky, {}, faults);
  EXPECT_TRUE(r.status.failed());
  EXPECT_TRUE(r.status.code == StatusCode::kCommFailure ||
              r.status.code == StatusCode::kCommTimeout)
      << r.status.to_string();
  EXPECT_NE(r.status.message.find("mpsim"), std::string::npos);
}

// --- Generator helper ------------------------------------------------------

TEST(Gen, AppendDecoupledRowsShape) {
  const SparseMatrix base = grid_laplacian_2d(4, 4, 5);
  const SparseMatrix a = append_decoupled_rows(base, 3, -2.5);
  EXPECT_EQ(a.rows, base.rows + 3);
  EXPECT_EQ(a.nnz(), base.nnz() + 3);
  for (index_t k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(a.at(base.rows + k, base.rows + k), -2.5);
  }
  // Decoupled rows have exactly one stored entry.
  for (index_t k = 0; k < 3; ++k) {
    const index_t j = base.rows + k;
    EXPECT_EQ(a.col_ptr[j + 1] - a.col_ptr[j], 1);
  }
}

}  // namespace
}  // namespace parfact
