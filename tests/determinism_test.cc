// Bitwise-determinism contract of the task-DAG runtime engine.
//
// The standing invariant (DESIGN.md §5d): multifrontal_factor_parallel must
// produce a factor bitwise identical to the serial multifrontal_factor —
// same values, same LDLᵀ diagonal, same static-pivot perturbation counts —
// for every matrix, every thread count, and every coop_flops setting. The
// engine earns this by fixing the extend-add child order inside each
// assemble task and by splitting kernels only along row ranges whose
// per-element operation sequence is partition-independent. These tests
// sweep the full mf_test/property_test matrix families, both factor kinds,
// and the fused factorize+solve path.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "api/solver.h"
#include "mf/multifrontal.h"
#include "sparse/gen.h"
#include "support/prng.h"
#include "support/thread_pool.h"
#include "symbolic/symbolic_factor.h"
#include "symbolic/working_set.h"

namespace parfact {
namespace {

// memcmp per panel column (the panel is column-major with ld >= rows, so a
// single flat compare would look at uninitialized padding).
void expect_bitwise_equal(const SymbolicFactor& sym, const CholeskyFactor& a,
                          const CholeskyFactor& b, const char* what) {
  ASSERT_EQ(a.is_ldlt(), b.is_ldlt()) << what;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    ASSERT_EQ(pa.rows, pb.rows);
    ASSERT_EQ(pa.cols, pb.cols);
    for (index_t j = 0; j < pa.cols; ++j) {
      ASSERT_EQ(std::memcmp(&pa.at(0, j), &pb.at(0, j),
                            static_cast<std::size_t>(pa.rows) *
                                sizeof(real_t)),
                0)
          << what << ": supernode " << s << " column " << j;
    }
  }
  if (a.is_ldlt()) {
    ASSERT_EQ(a.diag().size(), b.diag().size());
    ASSERT_EQ(std::memcmp(a.diag().data(), b.diag().data(),
                          a.diag().size() * sizeof(real_t)),
              0)
        << what << ": LDLT diagonal differs";
  }
}

// Serial reference vs the task-DAG engine at several thread counts and two
// granularities (default, and coop_flops=1000 which splits every nontrivial
// front into slab tasks).
void check_matrix(const SparseMatrix& lower, FactorKind kind,
                  const char* name, PivotPolicy pivot = {}) {
  SCOPED_TRACE(name);
  const SymbolicFactor sym = analyze(lower);
  FactorStats serial_stats;
  const CholeskyFactor serial =
      multifrontal_factor(sym, &serial_stats, kind, pivot);

  for (const int threads : {1, 2, 3, 7}) {
    ThreadPool pool(threads);
    for (const count_t coop : {kCoopFrontFlops, count_t{1000}}) {
      FactorStats dag_stats;
      const CholeskyFactor dag = multifrontal_factor_parallel(
          sym, pool, &dag_stats, kind, coop, pivot);
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " coop=" << coop);
      EXPECT_EQ(dag_stats.pivot_perturbations,
                serial_stats.pivot_perturbations);
      expect_bitwise_equal(sym, serial, dag, "task-DAG vs serial");
    }
  }
}

TEST(Determinism, SuiteMatricesCholesky) {
  for (const auto& prob : test_suite(0.12)) {
    check_matrix(prob.lower, FactorKind::kCholesky, prob.name.c_str());
  }
}

TEST(Determinism, SuiteMatricesLdlt) {
  for (const auto& prob : test_suite(0.12)) {
    check_matrix(prob.lower, FactorKind::kLdlt, prob.name.c_str());
  }
}

TEST(Determinism, RandomSpdSeeds) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    check_matrix(random_spd(120, 6, seed), FactorKind::kCholesky,
                 "random_spd-120");
  }
}

TEST(Determinism, GridLaplacians) {
  check_matrix(grid_laplacian_2d(15, 15, 5), FactorKind::kCholesky,
               "grid2d-15x15");
  check_matrix(grid_laplacian_3d(7, 7, 7, 7), FactorKind::kCholesky,
               "grid3d-7");
  check_matrix(grid_laplacian_3d(6, 6, 6, 27), FactorKind::kCholesky,
               "grid3d-6-27pt");
  check_matrix(banded_spd(90, 7), FactorKind::kCholesky, "banded-90");
}

// Indefinite KKT system: LDLT with static pivoting. The perturbation count
// must be schedule-independent, not just the values.
TEST(Determinism, SaddlePointPerturbationCounts) {
  // Decoupled near-zero rows guarantee the boosts fire deterministically
  // (the kkt pivots themselves are healthy at this size).
  const SparseMatrix kkt =
      append_decoupled_rows(saddle_point_kkt(60, 25, 4, 3), 4, 1e-30);
  PivotPolicy pivot = resolve_pivot_policy({.boost = true}, kkt);
  const SymbolicFactor sym = analyze(kkt);
  FactorStats stats;
  (void)multifrontal_factor(sym, &stats, FactorKind::kLdlt, pivot);
  ASSERT_GE(stats.pivot_perturbations, 4);
  check_matrix(kkt, FactorKind::kLdlt, "kkt-60-25", pivot);
}

// Fused factorize_and_solve must equal factorize() followed by
// solve_multi() bitwise — the phase-fusion tasks reuse the very same solve
// schedule and kernels, just scheduled earlier.
TEST(Determinism, FusedFactorizeAndSolveMatchesTwoStep) {
  const SparseMatrix a = grid_laplacian_3d(8, 8, 8, 7);
  const index_t n = a.rows;
  const index_t nrhs = 3;
  Prng rng(11);
  std::vector<real_t> b(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : b) v = rng.next_real(-1, 1);

  SolverOptions opts;
  opts.threads = 4;
  Solver fused(opts);
  fused.analyze(a);
  std::vector<real_t> x_fused;
  const Status st = fused.factorize_and_solve(b, nrhs, x_fused);
  EXPECT_TRUE(st.ok());

  Solver two_step(opts);
  two_step.analyze(a);
  EXPECT_TRUE(two_step.factorize().ok());
  const std::vector<real_t> x_two = two_step.solve_multi(b, nrhs);

  ASSERT_EQ(x_fused.size(), x_two.size());
  EXPECT_EQ(std::memcmp(x_fused.data(), x_two.data(),
                        x_fused.size() * sizeof(real_t)),
            0);
  expect_bitwise_equal(fused.factor().symbolic(), fused.factor(),
                       two_step.factor(), "fused vs two-step factor");
}

// factorize_and_solve honours every option factorize() does: whatever the
// options, the status, x, factor, SDC counters and spill state equal those
// of factorize() followed by solve_multi().
struct FusedCase {
  SparseMatrix a = grid_laplacian_2d(30, 30, 5);
  index_t nrhs = 2;
  std::vector<real_t> b;
  FusedCase() {
    Prng rng(23);
    b.resize(static_cast<std::size_t>(a.rows) * nrhs);
    for (auto& v : b) v = rng.next_real(-1, 1);
  }

  void expect_same(Solver& fused, Solver& two_step) const {
    std::vector<real_t> x_fused;
    const Status sf = fused.factorize_and_solve(b, nrhs, x_fused);
    const Status st = two_step.factorize();
    ASSERT_EQ(sf.code, st.code);
    ASSERT_TRUE(st.ok()) << st.to_string();
    const std::vector<real_t> x_two = two_step.solve_multi(b, nrhs);
    ASSERT_EQ(x_fused.size(), x_two.size());
    EXPECT_EQ(std::memcmp(x_fused.data(), x_two.data(),
                          x_fused.size() * sizeof(real_t)),
              0);
    EXPECT_EQ(fused.report().abft_checks, two_step.report().abft_checks);
    EXPECT_EQ(fused.report().corruption_detected,
              two_step.report().corruption_detected);
    EXPECT_EQ(fused.report().admission, two_step.report().admission);
    EXPECT_EQ(fused.report().peak_bytes, two_step.report().peak_bytes);
    EXPECT_EQ(fused.factor_spilled(), two_step.factor_spilled());
    if (!two_step.factor_spilled()) {
      expect_bitwise_equal(two_step.symbolic(), two_step.factor(),
                           fused.factor(), "fused vs two-step factor");
    }
  }
};

TEST(Determinism, FusedRunsAbftChecks) {
  const FusedCase c;
  SolverOptions opts;
  opts.threads = 4;
  opts.abft = true;
  Solver fused(opts);
  fused.analyze(c.a);
  Solver two_step(opts);
  two_step.analyze(c.a);
  c.expect_same(fused, two_step);
  EXPECT_GT(fused.report().abft_checks, 0);
}

TEST(Determinism, FusedAfterSpilledFactorizeLeavesNoSpilledFactor) {
  const FusedCase c;
  SolverOptions opts;
  opts.threads = 4;
  opts.spill_path = "/tmp/parfact_determinism_fused_spill.bin";
  Solver fused(opts);
  fused.analyze(c.a);
  fused.set_memory_budget_bytes(
      estimate_working_set(fused.symbolic(), false).peak_incore_bytes - 1);
  ASSERT_TRUE(fused.factorize().ok());
  ASSERT_TRUE(fused.factor_spilled());
  fused.set_memory_budget_bytes(0);  // lift the budget: the DAG may run

  Solver two_step(opts);
  two_step.analyze(c.a);
  c.expect_same(fused, two_step);
  EXPECT_FALSE(fused.factor_spilled());
}

TEST(Determinism, FusedAppliesStoredFactorInjectionAndVerifies) {
  const FusedCase c;
  SolverOptions opts;
  opts.threads = 4;
  opts.verify = SolverOptions::Verify::kFull;
  opts.inject_sdc = SdcInjection{};
  opts.inject_sdc->site = SdcSite::kStoredFactor;
  opts.inject_sdc->supernode = 1;
  Solver fused(opts);
  fused.analyze(c.a);
  Solver two_step(opts);
  two_step.analyze(c.a);
  c.expect_same(fused, two_step);
  EXPECT_TRUE(fused.report().corruption_detected);
}

}  // namespace
}  // namespace parfact
