// Tests for the symbolic-reuse serving engine: pattern keys, the shared
// analysis cache, the refactorize fast path, factor spill/reload, and the
// multi-session SolverService. The standing contract threads through all
// of it: a cache-hit analyze and an in-place refactorize are bitwise
// identical to their cold counterparts, across every engine, and a session
// job never observes a torn factor — it gets one of the consistent answers
// or a diagnosed Status.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/service.h"
#include "api/solver.h"
#include "api/symbolic_cache.h"
#include "mf/multifrontal.h"
#include "solve/solve_schedule.h"
#include "sparse/gen.h"
#include "support/prng.h"
#include "support/resource.h"
#include "support/status.h"
#include "symbolic/pattern_key.h"
#include "symbolic/working_set.h"

namespace parfact {
namespace {

void expect_panels_bitwise_equal(const SymbolicFactor& sym,
                                 const CholeskyFactor& a,
                                 const CholeskyFactor& b) {
  ASSERT_EQ(a.is_ldlt(), b.is_ldlt());
  if (a.is_ldlt()) {
    const auto da = a.diag();
    const auto db = b.diag();
    ASSERT_EQ(da.size(), db.size());
    ASSERT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(real_t)),
              0);
  }
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    ASSERT_EQ(std::memcmp(pa.data, pb.data,
                          static_cast<std::size_t>(pa.rows) * pa.cols *
                              sizeof(real_t)),
              0)
        << "supernode " << s;
  }
}

SparseMatrix scaled_values(const SparseMatrix& a, real_t scale) {
  SparseMatrix out = a;
  for (real_t& v : out.values) v *= scale;
  return out;
}

// ---------------------------------------------------------------------------
// PatternKey

TEST(PatternKeyTest, IdentifiesStructureNotValues) {
  const SparseMatrix a = grid_laplacian_2d(20, 20);
  const SparseMatrix b = scaled_values(a, 3.5);
  EXPECT_EQ(pattern_key(a), pattern_key(b));
  EXPECT_EQ(PatternKeyHash{}(pattern_key(a)),
            PatternKeyHash{}(pattern_key(b)));
}

TEST(PatternKeyTest, DiscriminatesStructureAndConfig) {
  const SparseMatrix a = grid_laplacian_2d(20, 20);
  const SparseMatrix b = grid_laplacian_2d(21, 20);
  const SparseMatrix c = grid_laplacian_3d(5, 5, 5);
  EXPECT_FALSE(pattern_key(a) == pattern_key(b));
  EXPECT_FALSE(pattern_key(a) == pattern_key(c));
  // Same structure, different configuration digest.
  EXPECT_FALSE(pattern_key(a, 1) == pattern_key(a, 2));
  // Collision guards carried verbatim.
  const PatternKey ka = pattern_key(a);
  EXPECT_EQ(ka.n, a.rows);
  EXPECT_EQ(ka.nnz, a.nnz());
}

// ---------------------------------------------------------------------------
// SymbolicCache

std::shared_ptr<const CachedAnalysis> make_entry(const SparseMatrix& lower) {
  Solver probe;  // cold analyze to manufacture a valid entry
  probe.analyze(lower);
  SymbolicFactor sym = probe.symbolic();
  std::fill(sym.a.values.begin(), sym.a.values.end(), 0.0);
  std::vector<index_t> vmap(sym.a.values.size());
  // Identity-ish map is fine for cache-mechanics tests.
  for (std::size_t q = 0; q < vmap.size(); ++q) {
    vmap[q] = static_cast<index_t>(q);
  }
  return std::make_shared<CachedAnalysis>(std::move(sym), probe.permutation(),
                                          std::move(vmap));
}

TEST(SymbolicCacheTest, HitMissCountsAndLruEviction) {
  const SparseMatrix g1 = grid_laplacian_2d(8, 8);
  const SparseMatrix g2 = grid_laplacian_2d(9, 9);
  const SparseMatrix g3 = grid_laplacian_2d(10, 10);
  SymbolicCache cache(2);
  EXPECT_EQ(cache.lookup(pattern_key(g1)), nullptr);
  EXPECT_EQ(cache.misses(), 1);
  cache.insert(pattern_key(g1), make_entry(g1));
  cache.insert(pattern_key(g2), make_entry(g2));
  EXPECT_NE(cache.lookup(pattern_key(g1)), nullptr);  // g1 now most recent
  EXPECT_EQ(cache.hits(), 1);
  cache.insert(pattern_key(g3), make_entry(g3));  // evicts LRU = g2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.lookup(pattern_key(g2)), nullptr);
  EXPECT_NE(cache.lookup(pattern_key(g1)), nullptr);
  EXPECT_NE(cache.lookup(pattern_key(g3)), nullptr);
}

TEST(SymbolicCacheTest, InsertRaceIncumbentWins) {
  const SparseMatrix g = grid_laplacian_2d(8, 8);
  SymbolicCache cache(4);
  const auto first = cache.insert(pattern_key(g), make_entry(g));
  const auto second = cache.insert(pattern_key(g), make_entry(g));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Cache-assisted analyze: bitwise identity with the cold path

class CachedAnalyzeTest : public ::testing::TestWithParam<int> {};

TEST_P(CachedAnalyzeTest, HitIsBitwiseIdenticalToCold) {
  const int threads = GetParam();
  const SparseMatrix a = grid_laplacian_2d(40, 40);
  SymbolicCache cache(8);
  SolverOptions copt;
  copt.threads = threads;
  copt.symbolic_cache = &cache;

  Solver miss(copt);
  miss.analyze(a);
  ASSERT_TRUE(miss.factorize().ok());
  EXPECT_EQ(miss.report().symbolic_cache_misses, 1);
  EXPECT_EQ(miss.report().symbolic_cache_hits, 0);

  Solver hit(copt);
  hit.analyze(a);
  ASSERT_TRUE(hit.factorize().ok());
  EXPECT_EQ(hit.report().symbolic_cache_hits, 1);

  // The adopted analysis equals the cold one exactly: structure, values,
  // permutation, and the factor computed from it.
  EXPECT_EQ(miss.symbolic().a.col_ptr, hit.symbolic().a.col_ptr);
  EXPECT_EQ(miss.symbolic().a.row_ind, hit.symbolic().a.row_ind);
  EXPECT_EQ(miss.symbolic().a.values, hit.symbolic().a.values);
  EXPECT_EQ(miss.permutation(), hit.permutation());
  expect_panels_bitwise_equal(miss.symbolic(), miss.factor(), hit.factor());

  // And against a solver with no cache at all.
  SolverOptions cold_opt;
  cold_opt.threads = threads;
  Solver cold(cold_opt);
  cold.analyze(a);
  ASSERT_TRUE(cold.factorize().ok());
  EXPECT_EQ(cold.symbolic().a.values, hit.symbolic().a.values);
  expect_panels_bitwise_equal(cold.symbolic(), cold.factor(), hit.factor());
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, CachedAnalyzeTest,
                         ::testing::Values(1, 4));

// The cache key is (pattern, ordering). Solvers that differ in any other
// option analyze a pattern once and share its entry; each ordering gets its
// own entry and its own permutation.
TEST(CachedAnalyze, KeyIsPatternAndOrderingOnly) {
  const SparseMatrix a = grid_laplacian_2d(12, 11);
  SymbolicCache cache(8);
  std::vector<SolverOptions> variants(7);
  variants[1].threads = 4;
  variants[2].factor_kind = FactorKind::kLdlt;
  variants[3].static_pivoting = false;
  variants[4].abft = true;
  variants[5].verify = SolverOptions::Verify::kFull;
  variants[6].memory_budget_bytes = 1 << 20;
  std::vector<index_t> nd_perm;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE(v);
    variants[v].symbolic_cache = &cache;
    Solver solver(variants[v]);
    solver.analyze(a);
    EXPECT_EQ(solver.report().symbolic_cache_misses, v == 0 ? 1 : 0);
    EXPECT_EQ(solver.report().symbolic_cache_hits, v == 0 ? 0 : 1);
    if (v == 0) nd_perm = solver.permutation();
    EXPECT_EQ(solver.permutation(), nd_perm);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), static_cast<count_t>(variants.size()) - 1);

  std::vector<std::vector<index_t>> perms = {nd_perm};
  for (const auto ordering : {SolverOptions::Ordering::kNatural,
                              SolverOptions::Ordering::kMinimumDegree}) {
    SolverOptions opt;
    opt.ordering = ordering;
    opt.symbolic_cache = &cache;
    Solver solver(opt);
    solver.analyze(a);
    EXPECT_EQ(solver.report().symbolic_cache_misses, 1);
    EXPECT_EQ(solver.report().symbolic_cache_hits, 0);
    for (const auto& other : perms) EXPECT_NE(solver.permutation(), other);
    perms.push_back(solver.permutation());
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.misses(), 3);
}

// EXPECT_EQ on double vectors takes −0.0 == +0.0, so the identity above
// cannot see a sign flip. A stored −0.0 must reach sym.a with its bits on
// every path: cold analyze, cache hit and refactorize all move values raw.
TEST(CachedAnalyze, StoredNegativeZeroKeepsItsBitsOnEveryPath) {
  SparseMatrix a = grid_laplacian_2d(6, 6);
  index_t flipped = kNone;
  for (index_t p = a.col_ptr[0]; p < a.col_ptr[1]; ++p) {
    if (a.row_ind[p] != 0) flipped = p;
  }
  ASSERT_NE(flipped, kNone);
  a.values[flipped] = -0.0;

  const auto bytes_equal = [](const std::vector<real_t>& x,
                              const std::vector<real_t>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(real_t)) == 0;
  };
  SymbolicCache cache(4);
  SolverOptions opt;
  opt.symbolic_cache = &cache;
  Solver cold(opt);
  cold.analyze(a);
  Solver hit(opt);
  hit.analyze(a);
  ASSERT_EQ(hit.report().symbolic_cache_hits, 1);
  const std::vector<real_t>& cold_a = cold.symbolic().a.values;
  EXPECT_TRUE(bytes_equal(cold_a, hit.symbolic().a.values));
  EXPECT_EQ(std::count_if(cold_a.begin(), cold_a.end(),
                          [](real_t v) { return v == 0.0 && std::signbit(v); }),
            1);

  ASSERT_TRUE(cold.factorize().ok());
  ASSERT_TRUE(hit.factorize().ok());
  expect_panels_bitwise_equal(cold.symbolic(), cold.factor(), hit.factor());
  ASSERT_TRUE(hit.refactorize(a.values).ok());
  EXPECT_TRUE(bytes_equal(cold_a, hit.symbolic().a.values));
}

// ---------------------------------------------------------------------------
// Refactorize: bitwise identity across engines

struct EngineCase {
  const char* name;
  int threads;
};

class RefactorizeEngineTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(RefactorizeEngineTest, BitwiseIdenticalToColdFactorize) {
  const EngineCase ec = GetParam();
  const SparseMatrix a = grid_laplacian_2d(36, 36);
  const SparseMatrix a2 = scaled_values(a, 1.75);

  SolverOptions opt;
  opt.threads = ec.threads;

  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const Status st = solver.refactorize(a2.values);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(solver.report().refactorizes, 1);

  Solver cold(opt);
  cold.analyze(a2);
  ASSERT_TRUE(cold.factorize().ok());
  expect_panels_bitwise_equal(cold.symbolic(), cold.factor(),
                              solver.factor());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  EXPECT_EQ(cold.solve(b), solver.solve(b));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RefactorizeEngineTest,
    ::testing::Values(
        EngineCase{"serial", 1}, EngineCase{"taskdag", 4}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.name;
    });

TEST(RefactorizeTest, OocSpillPathIdentity) {
  // A budget that admits only the spill rung: refactorize degrades to the
  // governed path and the re-spilled factor matches a cold spilled run.
  const SparseMatrix a = grid_laplacian_2d(28, 28);
  const SparseMatrix a2 = scaled_values(a, 2.25);

  SolverOptions opt;
  opt.spill_path = "serving_test_ooc_a.bin";
  Solver solver(opt);
  solver.analyze(a);
  const WorkingSetEstimate est =
      estimate_working_set(solver.symbolic(), /*ldlt=*/false);
  solver.set_memory_budget_bytes(est.peak_incore_bytes - 1);
  ASSERT_TRUE(solver.factorize().ok());
  ASSERT_EQ(solver.report().admission, Admission::kSpill);
  ASSERT_TRUE(solver.refactorize(a2.values).ok());
  ASSERT_EQ(solver.report().admission, Admission::kSpill);
  ASSERT_TRUE(solver.factor_spilled());

  SolverOptions copt;
  copt.spill_path = "serving_test_ooc_b.bin";
  Solver cold(copt);
  cold.analyze(a2);
  cold.set_memory_budget_bytes(est.peak_incore_bytes - 1);
  ASSERT_TRUE(cold.factorize().ok());
  ASSERT_TRUE(cold.factor_spilled());

  const SymbolicFactor& sym = cold.symbolic();
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t rows = sym.front_order(s);
    const index_t cols = sym.sn_cols(s);
    std::vector<real_t> pa(static_cast<std::size_t>(rows) * cols);
    std::vector<real_t> pb(pa.size());
    solver.ooc_factor().read_panel(s, MatrixView{pa.data(), rows, cols, rows});
    cold.ooc_factor().read_panel(s, MatrixView{pb.data(), rows, cols, rows});
    ASSERT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(real_t)),
              0)
        << "supernode " << s;
  }
}

TEST(RefactorizeTest, KktPerturbationCountIdentity) {
  // Decoupled near-singular rows produce a deterministic perturbation
  // count; refactorize must report exactly what a cold run reports.
  const index_t kDecoupled = 5;
  const SparseMatrix base = saddle_point_kkt(80, 40, 3, 17);
  const SparseMatrix a = append_decoupled_rows(base, kDecoupled, 1e-30);
  const SparseMatrix a2 = scaled_values(a, 1.5);

  SolverOptions opt;
  opt.factor_kind = FactorKind::kLdlt;
  opt.threads = 2;
  Solver solver(opt);
  solver.analyze(a);
  const Status first = solver.factorize();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.perturbations, kDecoupled);

  const Status re = solver.refactorize(a2.values);
  ASSERT_TRUE(re.ok());

  Solver cold(opt);
  cold.analyze(a2);
  const Status cs = cold.factorize();
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(re.perturbations, cs.perturbations);
  EXPECT_EQ(solver.report().pivot_perturbations,
            cold.report().pivot_perturbations);
  expect_panels_bitwise_equal(cold.symbolic(), cold.factor(),
                              solver.factor());
}

// refactorize() under every feature combination equals a cold factorize()
// on the new values: the factor bitwise, the SDC counters, and the
// governance fields — an in-place run reports the run that admitted its
// factor. Unlimited, in-core and spill budgets, each with and without ABFT.
TEST(RefactorizeTest, MatchesColdFactorizeUnderEveryFeature) {
  const SparseMatrix a = grid_laplacian_2d(30, 30);
  const SparseMatrix a2 = scaled_values(a, 1.25);
  Solver probe;
  probe.analyze(a);
  const WorkingSetEstimate est =
      estimate_working_set(probe.symbolic(), /*ldlt=*/false);
  for (const bool abft : {false, true}) {
    for (const std::size_t budget : {std::size_t{0}, est.peak_incore_bytes,
                                     est.peak_incore_bytes - 1}) {
      SCOPED_TRACE(::testing::Message()
                   << "abft " << abft << ", budget " << budget);
      SolverOptions opt;
      opt.abft = abft;
      opt.memory_budget_bytes = budget;
      opt.spill_path = "serving_test_every_feature_a.bin";
      Solver solver(opt);
      solver.analyze(a);
      ASSERT_TRUE(solver.factorize().ok());
      const Status st = solver.refactorize(a2.values);
      ASSERT_TRUE(st.ok()) << st.to_string();

      opt.spill_path = "serving_test_every_feature_b.bin";
      Solver cold(opt);
      cold.analyze(a2);
      ASSERT_TRUE(cold.factorize().ok());
      const SolverReport& r = solver.report();
      const SolverReport& c = cold.report();
      EXPECT_EQ(r.admission, c.admission);
      EXPECT_EQ(r.peak_bytes, c.peak_bytes);
      EXPECT_GT(r.peak_bytes, 0u);
      EXPECT_EQ(r.bytes_spilled, c.bytes_spilled);
      EXPECT_EQ(r.abft_checks, c.abft_checks);
      EXPECT_EQ(r.pivot_perturbations, c.pivot_perturbations);
      ASSERT_EQ(solver.factor_spilled(), cold.factor_spilled());
      if (!cold.factor_spilled()) {
        expect_panels_bitwise_equal(cold.symbolic(), cold.factor(),
                                    solver.factor());
      }
      const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
      EXPECT_EQ(cold.solve(b), solver.solve(b));
    }
  }
}

TEST(RefactorizeTest, ValueLengthMismatchDiagnosed) {
  const SparseMatrix a = grid_laplacian_2d(12, 12);
  Solver solver;
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  std::vector<real_t> short_values(a.values.size() - 1, 1.0);
  const Status st = solver.refactorize(short_values);
  EXPECT_EQ(st.code, StatusCode::kInvalidInput);
  // The previous factor is untouched and still solves.
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-12);
}

TEST(RefactorizeTest, AfterCancelReproducesUnbudgetedFactor) {
  const SparseMatrix a = grid_laplacian_2d(30, 30);
  const SparseMatrix a2 = scaled_values(a, 1.25);
  Solver solver;
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());

  solver.cancel();
  const Status cancelled = solver.refactorize(a2.values);
  EXPECT_EQ(cancelled.code, StatusCode::kCancelled);
  EXPECT_FALSE(solver.has_factor());

  // The solver is immediately reusable and the retry is bitwise identical
  // to an uninterrupted cold run on the same values.
  const Status retry = solver.refactorize(a2.values);
  ASSERT_TRUE(retry.ok()) << retry.to_string();
  Solver cold;
  cold.analyze(a2);
  ASSERT_TRUE(cold.factorize().ok());
  expect_panels_bitwise_equal(cold.symbolic(), cold.factor(),
                              solver.factor());
}

// ---------------------------------------------------------------------------
// Explicit spill / unspill

TEST(SpillFactorTest, RoundtripPreservesSolvesBitwise) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  SolverOptions opt;
  opt.spill_path = "serving_test_spill.bin";
  Solver solver(opt);
  EXPECT_ANY_THROW((void)solver.spill_factor());  // before analyze: assert

  solver.analyze(a);
  EXPECT_EQ(solver.spill_factor().code, StatusCode::kInvalidInput);
  EXPECT_EQ(solver.unspill_factor().code, StatusCode::kInvalidInput);
  ASSERT_TRUE(solver.factorize().ok());
  const std::size_t incore_bytes = solver.factor_bytes();
  EXPECT_GT(incore_bytes, 0u);

  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_incore = solver.solve(b);

  ASSERT_TRUE(solver.spill_factor().ok());
  EXPECT_TRUE(solver.factor_spilled());
  ASSERT_TRUE(solver.spill_factor().ok());  // idempotent
  EXPECT_EQ(solver.solve(b), x_incore);     // streamed solve, same answer

  ASSERT_TRUE(solver.unspill_factor().ok());
  EXPECT_FALSE(solver.factor_spilled());
  EXPECT_EQ(solver.factor_bytes(), incore_bytes);
  EXPECT_EQ(solver.solve(b), x_incore);
}

TEST(SpillFactorTest, UnchangedFactorReusesItsKeptFile) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  SolverOptions opt;
  opt.spill_path = "serving_test_kept.bin";
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const std::size_t bytes = solver.factor_bytes();
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_ref = solver.solve(b);

  EXPECT_EQ(solver.spill_bytes_written(), 0u);
  ASSERT_TRUE(solver.spill_factor().ok());
  EXPECT_EQ(solver.spill_bytes_written(), bytes);
  ASSERT_TRUE(solver.unspill_factor().ok());
  EXPECT_TRUE(std::filesystem::exists(opt.spill_path));  // kept, resident
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(solver.spill_factor().ok());
    ASSERT_TRUE(solver.unspill_factor().ok());
  }
  EXPECT_EQ(solver.spill_bytes_written(), bytes);
  EXPECT_EQ(solver.solve(b), x_ref);

  // analyze() drops the kept file.
  solver.analyze(a);
  EXPECT_FALSE(std::filesystem::exists(opt.spill_path));
}

// One fixed spill_path serves both spill_factor() and the governed spill
// rung: dropping the kept file before a factorization starts over means
// neither ever deletes the other's file.
TEST(SpillFactorTest, SharedPathWithGovernedSpillKeepsItsFile) {
  const SparseMatrix a = grid_laplacian_2d(26, 26);
  const SparseMatrix a2 = scaled_values(a, 1.5);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  Solver ref;
  ref.analyze(a2);
  ASSERT_TRUE(ref.factorize().ok());
  const std::vector<real_t> x_ref = ref.solve(b);

  SolverOptions opt;
  opt.spill_path = "serving_test_shared_path.bin";
  {
    Solver solver(opt);
    solver.analyze(a);
    ASSERT_TRUE(solver.factorize().ok());
    ASSERT_TRUE(solver.spill_factor().ok());
    ASSERT_TRUE(solver.unspill_factor().ok());
    ASSERT_TRUE(std::filesystem::exists(opt.spill_path));

    // The governed ladder spills to the same path.
    solver.set_memory_budget_bytes(
        estimate_working_set(solver.symbolic(), false).peak_incore_bytes - 1);
    ASSERT_TRUE(solver.refactorize(a2.values).ok());
    ASSERT_EQ(solver.report().admission, Admission::kSpill);
    ASSERT_TRUE(solver.factor_spilled());
    EXPECT_TRUE(std::filesystem::exists(opt.spill_path));
    EXPECT_EQ(solver.solve(b), x_ref);

    // Reload keeps the governed run's file; evicting again reuses it.
    const std::size_t written = solver.spill_bytes_written();
    ASSERT_TRUE(solver.unspill_factor().ok());
    ASSERT_TRUE(solver.spill_factor().ok());
    EXPECT_EQ(solver.spill_bytes_written(), written);
    EXPECT_TRUE(std::filesystem::exists(opt.spill_path));
    EXPECT_EQ(solver.solve(b), x_ref);

    // Back in-core under no budget, then evicted through spill_factor().
    solver.set_memory_budget_bytes(0);
    ASSERT_TRUE(solver.factorize().ok());
    ASSERT_FALSE(solver.factor_spilled());
    ASSERT_TRUE(solver.spill_factor().ok());
    EXPECT_TRUE(std::filesystem::exists(opt.spill_path));
    EXPECT_EQ(solver.solve(b), x_ref);
  }
  // Removed on destruction.
  EXPECT_FALSE(std::filesystem::exists(opt.spill_path));
}

// ---------------------------------------------------------------------------
// Resident vs spilled identity: a spilled factor runs the same sweeps, RHS
// block partition and refinement loop as a resident one, so every solve
// entry point and the condition estimate give the same bits resident,
// spilled (spill_factor() or the budget's spill rung) and reloaded — with
// nrhs on both sides of the sweeps' RHS block.

bool bitwise_equal(const std::vector<real_t>& x, const std::vector<real_t>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(real_t)) == 0;
}

std::vector<real_t> random_block(index_t n, index_t nrhs, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n) * nrhs);
  for (real_t& v : b) v = rng.next_real(-1, 1);
  return b;
}

/// The solve sweeps' block width: every Solver runs SolveScheduleOptions{}.
constexpr index_t kRhsBlock = SolveScheduleOptions{}.rhs_block;

/// Every solve entry point's answer, then the condition estimate.
std::vector<std::vector<real_t>> every_answer(const Solver& solver,
                                              index_t n) {
  const std::vector<real_t> b = random_block(n, 1, 5);
  std::vector<std::vector<real_t>> out;
  out.push_back(solver.solve(b));
  out.push_back(solver.solve_multi(b, 1));
  out.push_back(solver.solve_refined(b, 1));
  out.push_back(solver.solve_refined(b));
  for (const index_t nrhs : {kRhsBlock, kRhsBlock + 1}) {
    const std::vector<real_t> bb = random_block(n, nrhs, 7 + nrhs);
    out.push_back(solver.solve_multi(bb, nrhs));
    out.push_back(solver.solve_refined(bb, nrhs));
  }
  out.push_back({solver.condition_estimate()});
  return out;
}

void expect_same_answers(const std::vector<std::vector<real_t>>& want,
                         const std::vector<std::vector<real_t>>& got,
                         const char* state) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(want[i], got[i]))
        << state << ": answer " << i << " differs from the reference";
  }
}

struct FactorKindCase {
  const char* name;
  FactorKind kind;
};

class SpillIdentityTest : public ::testing::TestWithParam<FactorKindCase> {
};

TEST_P(SpillIdentityTest, ResidentSpilledAndReloadedAnswersAreBitwiseEqual) {
  const FactorKind kind = GetParam().kind;
  const SparseMatrix a = kind == FactorKind::kLdlt
                             ? saddle_point_kkt(300, 120, 3, 29)
                             : grid_laplacian_3d(10, 10, 10);
  SolverOptions opt;
  opt.factor_kind = kind;
  opt.spill_path = std::string("serving_test_identity_") + GetParam().name +
                   ".bin";
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const auto resident = every_answer(solver, a.rows);

  ASSERT_TRUE(solver.spill_factor().ok());
  ASSERT_TRUE(solver.factor_spilled());
  expect_same_answers(resident,
                      every_answer(solver, a.rows),
                      "spill_factor()");
  ASSERT_TRUE(solver.unspill_factor().ok());
  ASSERT_FALSE(solver.factor_spilled());
  expect_same_answers(resident,
                      every_answer(solver, a.rows),
                      "unspill_factor()");

  // The budget ladder's spill rung writes the factor while it factors.
  SolverOptions gopt = opt;
  gopt.spill_path = std::string("serving_test_identity_rung_") +
                    GetParam().name + ".bin";
  Solver governed(gopt);
  governed.analyze(a);
  governed.set_memory_budget_bytes(
      estimate_working_set(governed.symbolic(), kind == FactorKind::kLdlt)
          .peak_incore_bytes -
      1);
  ASSERT_TRUE(governed.factorize().ok());
  ASSERT_EQ(governed.report().admission, Admission::kSpill);
  expect_same_answers(resident,
                      every_answer(governed, a.rows),
                      "spill rung");
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SpillIdentityTest,
    ::testing::Values(FactorKindCase{"cholesky", FactorKind::kCholesky},
                      FactorKindCase{"ldlt", FactorKind::kLdlt}),
    [](const ::testing::TestParamInfo<FactorKindCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Thread count: one nested-dissection engine orders every solver, and every
// numeric engine and solve sweep is bitwise deterministic, so a Solver's
// permutation, factor and answers are the same bits at any thread count —
// standalone, through a SolverService session and through one shared
// SymbolicCache entry.

SparseMatrix thread_count_matrix(FactorKind kind) {
  return kind == FactorKind::kLdlt ? saddle_point_kkt(600, 240, 3, 29)
                                   : grid_laplacian_3d(12, 12, 12);
}

/// solve, solve_multi and solve_refined one column past a RHS block,
/// solve_refined, then factorize_and_solve (which re-factors).
std::vector<std::vector<real_t>> threaded_answers(Solver& solver,
                                                  index_t n) {
  const index_t nrhs = kRhsBlock + 1;
  const std::vector<real_t> b = random_block(n, 1, 11);
  const std::vector<real_t> bb = random_block(n, nrhs, 13);
  std::vector<std::vector<real_t>> out;
  out.push_back(solver.solve(b));
  out.push_back(solver.solve_multi(bb, nrhs));
  out.push_back(solver.solve_refined(bb, nrhs));
  out.push_back(solver.solve_refined(b));
  std::vector<real_t> x;
  EXPECT_TRUE(solver.factorize_and_solve(bb, nrhs, x).ok());
  out.push_back(std::move(x));
  return out;
}

class ThreadCountIdentityTest
    : public ::testing::TestWithParam<FactorKindCase> {};

TEST_P(ThreadCountIdentityTest, PermutationFactorAndAnswersIgnoreThreads) {
  const FactorKind kind = GetParam().kind;
  const SparseMatrix a = thread_count_matrix(kind);
  SolverOptions opt;
  opt.factor_kind = kind;
  Solver serial(opt);
  serial.analyze(a);
  ASSERT_TRUE(serial.factorize().ok());
  const auto want = threaded_answers(serial, a.rows);

  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    SolverOptions topt = opt;
    topt.threads = threads;
    Solver threaded(topt);
    threaded.analyze(a);
    ASSERT_EQ(threaded.permutation(), serial.permutation());
    ASSERT_TRUE(threaded.factorize().ok());
    expect_panels_bitwise_equal(serial.symbolic(), serial.factor(),
                                threaded.factor());
    expect_same_answers(
        want, threaded_answers(threaded, a.rows),
        "threads > 1");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ThreadCountIdentityTest,
    ::testing::Values(FactorKindCase{"cholesky", FactorKind::kCholesky},
                      FactorKindCase{"ldlt", FactorKind::kLdlt}),
    [](const ::testing::TestParamInfo<FactorKindCase>& info) {
      return info.param.name;
    });

TEST(ThreadCountTest, ServiceSessionAnswersAlikeAtAnyThreadCount) {
  const SparseMatrix a = thread_count_matrix(FactorKind::kCholesky);
  const SparseMatrix a2 = scaled_values(a, 1.25);
  const index_t nrhs = kRhsBlock + 1;
  const std::vector<real_t> b = random_block(a.rows, 1, 17);
  const std::vector<real_t> bb = random_block(a.rows, nrhs, 19);
  const auto session_answers = [&](int threads) {
    ServiceOptions opt;
    opt.solver.threads = threads;
    SolverService svc(opt);
    std::vector<std::vector<real_t>> out(4);
    SessionId id = 0;
    EXPECT_TRUE(svc.open(a, id).ok());
    EXPECT_TRUE(svc.factorize(id).ok());
    EXPECT_TRUE(svc.solve(id, b, out[0]).ok());
    EXPECT_TRUE(svc.solve_batch(id, bb, nrhs, out[1]).ok());
    EXPECT_TRUE(svc.refactorize(id, a2.values).ok());
    EXPECT_TRUE(svc.solve(id, b, out[2]).ok());
    EXPECT_TRUE(svc.solve_batch(id, bb, nrhs, out[3]).ok());
    return out;
  };
  expect_same_answers(session_answers(1), session_answers(2),
                      "threads = 2 session");
}

TEST(ThreadCountTest, TwoSessionsThreadedSolvesShareOnePool) {
  // Two clients solve on their own threads = 2 sessions at once, so the
  // task graphs of both sessions' sweeps run on the service's one pool.
  // Every answer is still a threads = 1 Solver's.
  const SparseMatrix a = thread_count_matrix(FactorKind::kCholesky);
  const SparseMatrix matrices[2] = {a, scaled_values(a, 1.25)};
  const index_t nrhs = kRhsBlock + 1;
  const std::vector<real_t> b = random_block(a.rows, 1, 29);
  const std::vector<real_t> bb = random_block(a.rows, nrhs, 31);
  std::vector<real_t> want_solve[2];
  std::vector<real_t> want_batch[2];
  for (int c = 0; c < 2; ++c) {
    Solver serial;
    serial.analyze(matrices[c]);
    ASSERT_TRUE(serial.factorize().ok());
    // The sweeps split into several tasks, or the pool would run one.
    ASSERT_GT(SolveSchedule(serial.symbolic()).n_tasks(), 1);
    want_solve[c] = serial.solve(b);
    want_batch[c] = serial.solve_refined(bb, nrhs);
  }

  ServiceOptions opt;
  opt.solver.threads = 2;
  opt.max_concurrent_jobs = 2;
  SolverService svc(opt);
  SessionId ids[2] = {0, 0};
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(svc.open(matrices[c], ids[c]).ok());
    ASSERT_TRUE(svc.factorize(ids[c]).ok());
  }
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      std::vector<real_t> x;
      for (int round = 0; round < kRounds; ++round) {
        if (!svc.solve(ids[c], b, x).ok()) {
          failures.fetch_add(1);
        } else if (!bitwise_equal(x, want_solve[c])) {
          mismatches.fetch_add(1);
        }
        if (!svc.solve_batch(ids[c], bb, nrhs, x).ok()) {
          failures.fetch_add(1);
        } else if (!bitwise_equal(x, want_batch[c])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadCountTest, OneCacheEntryServesEveryThreadCount) {
  const SparseMatrix a = thread_count_matrix(FactorKind::kCholesky);
  SymbolicCache cache(4);
  SolverOptions opt;
  opt.symbolic_cache = &cache;
  Solver serial(opt);
  serial.analyze(a);
  EXPECT_EQ(serial.report().symbolic_cache_misses, 1);

  SolverOptions topt = opt;
  topt.threads = 4;
  Solver threaded(topt);
  threaded.analyze(a);
  EXPECT_EQ(threaded.report().symbolic_cache_hits, 1);
  EXPECT_EQ(threaded.report().symbolic_cache_misses, 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(threaded.permutation(), serial.permutation());
}

// A moved Solver answers as it did before the move: the analysis stays put
// on the heap, so the factor, the schedule and the spill files that point
// at it stay valid.
TEST(SolverMoveTest, MovedSolverKeepsItsAnswers) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const SparseMatrix a2 = scaled_values(a, 1.75);
  const std::vector<real_t> b = random_block(a.rows, 1, 41);
  Solver unmoved;
  unmoved.analyze(a);
  ASSERT_TRUE(unmoved.factorize().ok());
  const std::vector<real_t> x_a = unmoved.solve(b);
  ASSERT_TRUE(unmoved.refactorize(a2.values).ok());
  const std::vector<real_t> x_a2 = unmoved.solve(b);

  const auto exercise = [&](Solver& moved) {
    ASSERT_EQ(&moved.factor().symbolic(), &moved.symbolic());
    EXPECT_TRUE(bitwise_equal(moved.solve(b), x_a));
    ASSERT_TRUE(moved.refactorize(a2.values).ok());
    EXPECT_TRUE(bitwise_equal(moved.solve(b), x_a2));
    ASSERT_TRUE(moved.spill_factor().ok());
    EXPECT_TRUE(bitwise_equal(moved.solve(b), x_a2));
    ASSERT_TRUE(moved.unspill_factor().ok());
    EXPECT_TRUE(bitwise_equal(moved.solve(b), x_a2));
  };
  {
    Solver source;
    source.analyze(a);
    ASSERT_TRUE(source.factorize().ok());
    Solver moved = std::move(source);
    exercise(moved);
  }
  {
    Solver source;
    source.analyze(a);
    ASSERT_TRUE(source.factorize().ok());
    Solver target;  // factored, holding a reservation on its own budget
    target.analyze(a2);
    ASSERT_TRUE(target.factorize().ok());
    target = std::move(source);
    exercise(target);
  }
}

// ---------------------------------------------------------------------------
// SolverService

TEST(SolverServiceTest, SessionLifecycleAndDiagnosedErrors) {
  const SparseMatrix a = grid_laplacian_2d(16, 16);
  SolverService svc;
  std::vector<real_t> x;
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);

  EXPECT_EQ(svc.solve(42, b, x).code, StatusCode::kInvalidInput);
  EXPECT_EQ(svc.factorize(42).code, StatusCode::kInvalidInput);
  EXPECT_EQ(svc.close(42).code, StatusCode::kInvalidInput);

  SessionId id = 0;
  ASSERT_TRUE(svc.open(a, id).ok());
  EXPECT_EQ(svc.solve(id, b, x).code, StatusCode::kInvalidInput);  // no factor
  ASSERT_TRUE(svc.factorize(id).ok());
  ASSERT_TRUE(svc.solve(id, b, x).ok());

  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());
  EXPECT_EQ(x, reference.solve(b));

  SolverReport report;
  ASSERT_TRUE(svc.report(id, report).ok());
  EXPECT_EQ(report.n, a.rows);
  ASSERT_TRUE(svc.close(id).ok());
  EXPECT_EQ(svc.close(id).code, StatusCode::kInvalidInput);
  EXPECT_EQ(svc.stats().sessions_open, 0);
}

TEST(SolverServiceTest, SymbolicReuseAcrossSessions) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const count_t kSessions = 6;
  SolverService svc;
  for (count_t i = 0; i < kSessions; ++i) {
    SessionId id = 0;
    ASSERT_TRUE(svc.open(a, id).ok());
    ASSERT_TRUE(svc.factorize(id).ok());
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.symbolic_cache_misses, 1);
  EXPECT_EQ(stats.symbolic_cache_hits, kSessions - 1);
  EXPECT_EQ(stats.sessions_open, kSessions);
}

TEST(SolverServiceTest, LruEvictionSpillsAndReloadsTransparently) {
  const SparseMatrix a = grid_laplacian_2d(30, 30);
  Solver probe;
  probe.analyze(a);
  ASSERT_TRUE(probe.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> x_ref = probe.solve(b);

  ServiceOptions opt;
  // Room for two resident factors: the third factorize must evict.
  opt.factor_cache_bytes = probe.factor_bytes() * 2 + 1024;
  SolverService svc(opt);
  SessionId ids[3];
  for (SessionId& id : ids) {
    ASSERT_TRUE(svc.open(a, id).ok());
    ASSERT_TRUE(svc.factorize(id).ok());
  }
  const ServiceStats stats = svc.stats();
  EXPECT_GE(stats.sessions_evicted, 1);
  EXPECT_LE(stats.factor_cache_bytes, opt.factor_cache_bytes);

  // Touching the evicted (coldest) session still returns the exact answer —
  // reloaded in-core (evicting someone else) or streamed from disk.
  std::vector<real_t> x;
  ASSERT_TRUE(svc.solve(ids[0], b, x).ok());
  EXPECT_EQ(x, x_ref);
  SolverReport report;
  ASSERT_TRUE(svc.report(ids[0], report).ok());
  EXPECT_GE(report.sessions_evicted, 1);
}

// The service's admission estimate of one resident factor of `a`.
std::size_t factor_estimate(const SparseMatrix& a) {
  Solver probe;
  probe.analyze(a);
  return estimate_working_set(probe.symbolic(), false).factor_bytes;
}

// Room for one resident factor of `a`'s pattern: with two sessions, every
// touch of the spilled one evicts the other.
ServiceOptions room_for_one(const SparseMatrix& a) {
  ServiceOptions opt;
  opt.factor_cache_bytes = factor_estimate(a) * 3 / 2;
  return opt;
}

std::vector<real_t> reference_solve(const SparseMatrix& a,
                                    const std::vector<real_t>& b) {
  Solver ref;
  ref.analyze(a);
  EXPECT_TRUE(ref.factorize().ok());
  return ref.solve(b);
}

TEST(SolverServiceTest, EvictingUnchangedFactorsWritesNothing) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const SparseMatrix a2 = scaled_values(a, 2.0);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> want[2] = {reference_solve(a, b),
                                       reference_solve(a2, b)};
  Solver probe;
  probe.analyze(a);
  ASSERT_TRUE(probe.factorize().ok());
  const std::size_t bytes = probe.factor_bytes();

  SolverService svc(room_for_one(a));
  SessionId ids[2];
  ASSERT_TRUE(svc.open(a, ids[0]).ok());
  ASSERT_TRUE(svc.open(a2, ids[1]).ok());
  ASSERT_TRUE(svc.factorize(ids[0]).ok());
  ASSERT_TRUE(svc.factorize(ids[1]).ok());  // evicts session 0: writes
  EXPECT_EQ(svc.stats().sessions_evicted, 1);
  EXPECT_EQ(svc.stats().spill_bytes_written, bytes);

  // Alternating solves: each reload evicts the other session. The first
  // eviction of session 1 writes; every later eviction finds the file kept
  // from the last reload unchanged and writes nothing.
  const int kRounds = 6;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<real_t> x;
    ASSERT_TRUE(svc.solve(ids[r % 2], b, x).ok());
    EXPECT_EQ(x, want[r % 2]) << "round " << r;
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.sessions_evicted, 1 + kRounds);
  EXPECT_EQ(st.spill_bytes_written, 2 * bytes);
  EXPECT_EQ(st.spills_reused, kRounds - 1);
}

// A reloaded factor refactorized in place differs from its kept file: the
// next eviction must rewrite it, and the reload must solve with the new
// values, bitwise.
TEST(SolverServiceTest, RefactorizedFactorIsRewrittenOnEviction) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const SparseMatrix a2 = scaled_values(a, 3.0);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> want_a = reference_solve(a, b);
  const std::vector<real_t> want_a2 = reference_solve(a2, b);

  SolverService svc(room_for_one(a));
  SessionId ids[2];
  for (SessionId& id : ids) {
    ASSERT_TRUE(svc.open(a, id).ok());
    ASSERT_TRUE(svc.factorize(id).ok());
  }
  std::vector<real_t> x;
  ASSERT_TRUE(svc.solve(ids[0], b, x).ok());  // reload 0, evict 1
  EXPECT_EQ(x, want_a);
  ASSERT_TRUE(svc.refactorize(ids[0], a2.values).ok());  // in place
  const ServiceStats before = svc.stats();
  ASSERT_TRUE(svc.solve(ids[1], b, x).ok());  // reload 1, evict 0
  EXPECT_EQ(x, want_a);
  const ServiceStats after = svc.stats();
  EXPECT_EQ(after.sessions_evicted, before.sessions_evicted + 1);
  EXPECT_GT(after.spill_bytes_written, before.spill_bytes_written);
  EXPECT_EQ(after.spills_reused, before.spills_reused);

  ASSERT_TRUE(svc.solve(ids[0], b, x).ok());  // reload 0 from the rewrite
  EXPECT_EQ(x, want_a2);
}

// A stored-factor flip repaired by post-solve verification rewrites the
// resident panels; the repaired factor, not the flipped one, must be what
// the next eviction stores and the next reload brings back.
TEST(SolverServiceTest, VerifyRepairSurvivesEvictAndReload) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> want = reference_solve(a, b);

  ServiceOptions opt = room_for_one(a);
  opt.solver.verify = SolverOptions::Verify::kSampled;
  opt.solver.inject_sdc = SdcInjection{};
  opt.solver.inject_sdc->site = SdcSite::kStoredFactor;
  opt.solver.inject_sdc->supernode = 1;
  SolverService svc(opt);
  SessionId ids[2];
  for (SessionId& id : ids) {
    ASSERT_TRUE(svc.open(a, id).ok());
    ASSERT_TRUE(svc.factorize(id).ok());  // flipped at rest
  }
  // Session 0 spilled with its flip; the reload brings the flip back and
  // the verified solve repairs it in place.
  std::vector<real_t> x;
  ASSERT_TRUE(svc.solve(ids[0], b, x).ok());
  EXPECT_EQ(x, want);
  SolverReport report;
  ASSERT_TRUE(svc.report(ids[0], report).ok());
  ASSERT_TRUE(report.corruption_detected);
  const count_t repaired = report.fronts_recomputed;
  ASSERT_GT(repaired, 0);

  ASSERT_TRUE(svc.solve(ids[1], b, x).ok());  // evicts the repaired 0
  EXPECT_EQ(x, want);
  ASSERT_TRUE(svc.solve(ids[0], b, x).ok());  // reloads it
  EXPECT_EQ(x, want);
  ASSERT_TRUE(svc.report(ids[0], report).ok());
  EXPECT_EQ(report.fronts_recomputed, repaired)
      << "the reload brought the flipped factor back";
}

std::size_t files_in(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

// A kept file damaged while its session is resident is reused by the next
// eviction (the resident factor is unchanged), caught by the reload's
// digests, and the service falls back to factorize() from the session's
// matrix.
TEST(SolverServiceTest, KeptFileCorruptedWhileResidentFallsBackToFactorize) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> want = reference_solve(a, b);
  const std::filesystem::path dir = "serving_test_corrupt_resident";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ServiceOptions opt = room_for_one(a);
  opt.spill_dir = dir.string();
  {
    SolverService svc(opt);
    SessionId ids[2];
    for (SessionId& id : ids) {
      ASSERT_TRUE(svc.open(a, id).ok());
      ASSERT_TRUE(svc.factorize(id).ok());
    }
    std::vector<real_t> x;
    ASSERT_TRUE(svc.solve(ids[0], b, x).ok());  // reload 0, evict 1
    EXPECT_EQ(files_in(dir), 2u);  // at most one file per open session

    // Damage session 0's kept file while session 0 is resident.
    const std::string suffix = "_" + std::to_string(ids[0]) + ".bin";
    std::string path;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().string();
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        path = name;
      }
    }
    ASSERT_FALSE(path.empty());
    {
      std::FILE* fp = std::fopen(path.c_str(), "r+b");
      ASSERT_NE(fp, nullptr);
      const long mid = static_cast<long>(std::filesystem::file_size(path) / 2);
      ASSERT_EQ(std::fseek(fp, mid, SEEK_SET), 0);
      const int c = std::fgetc(fp);
      ASSERT_EQ(std::fseek(fp, mid, SEEK_SET), 0);
      ASSERT_NE(std::fputc(c ^ 0x10, fp), EOF);
      std::fclose(fp);
    }

    const count_t reused = svc.stats().spills_reused;
    ASSERT_TRUE(svc.solve(ids[1], b, x).ok());  // evicts 0: file reused
    EXPECT_EQ(svc.stats().spills_reused, reused + 1);
    ASSERT_TRUE(svc.solve(ids[0], b, x).ok());  // digests fail: refactor
    EXPECT_EQ(x, want);
    EXPECT_LE(files_in(dir), 2u);
    for (const SessionId id : ids) ASSERT_TRUE(svc.close(id).ok());
    EXPECT_EQ(files_in(dir), 0u);
  }
  std::filesystem::remove_all(dir);
}

// Clients on disjoint sessions under heavy eviction churn: every reload
// evicts a session whose recency another client may be bumping at that
// moment, and every answer must still be the exact one for the session's
// current values.
TEST(SolverServiceTest, ConcurrentEvictionChurnStaysExact) {
  const SparseMatrix a = grid_laplacian_2d(20, 20);
  const SparseMatrix a2 = scaled_values(a, 1.5);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  const std::vector<real_t> want[2] = {reference_solve(a, b),
                                       reference_solve(a2, b)};
  const SparseMatrix* values[2] = {&a, &a2};

  ServiceOptions opt;
  opt.factor_cache_bytes = factor_estimate(a) * 3;  // three of the twelve
  opt.max_concurrent_jobs = 4;
  SolverService svc(opt);
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  SessionId ids[kClients * kPerClient];
  for (SessionId& id : ids) {
    ASSERT_TRUE(svc.open(a, id).ok());
    ASSERT_TRUE(svc.factorize(id).ok());
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int current[kPerClient] = {0, 0, 0};
      for (int r = 0; r < 60; ++r) {
        const int k = (r * 7 + c) % kPerClient;
        const SessionId id = ids[c * kPerClient + k];
        if (r % 10 == 9) {
          current[k] ^= 1;
          if (!svc.refactorize(id, values[current[k]]->values).ok()) ++wrong;
          continue;
        }
        std::vector<real_t> x;
        if (!svc.solve(id, b, x).ok() || x != want[current[k]]) ++wrong;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(svc.stats().sessions_evicted, 0);
}

TEST(SolverServiceTest, RefactorizeThroughService) {
  const SparseMatrix a = grid_laplacian_2d(20, 20);
  const SparseMatrix a2 = scaled_values(a, 4.0);
  SolverService svc;
  SessionId id = 0;
  ASSERT_TRUE(svc.open(a, id).ok());
  ASSERT_TRUE(svc.factorize(id).ok());
  ASSERT_TRUE(svc.refactorize(id, a2.values).ok());

  Solver cold;
  cold.analyze(a2);
  ASSERT_TRUE(cold.factorize().ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<real_t> x;
  ASSERT_TRUE(svc.solve(id, b, x).ok());
  EXPECT_EQ(x, cold.solve(b));
  EXPECT_EQ(svc.stats().refactorizes, 1);

  std::vector<real_t> short_values(a.values.size() - 1, 1.0);
  EXPECT_EQ(svc.refactorize(id, short_values).code,
            StatusCode::kInvalidInput);
}

// The hardening contract: solves racing a pending refactorize on one
// session serialize — every returned solution is exactly one of the two
// consistent answers, never a mix of old and new factor panels.
TEST(SolverServiceTest, ConcurrentSolveDuringRefactorizeNeverTears) {
  const SparseMatrix a = grid_laplacian_2d(24, 24);
  const SparseMatrix a2 = scaled_values(a, 2.0);
  const std::vector<real_t> b(static_cast<std::size_t>(a.rows), 1.0);

  Solver ref1;
  ref1.analyze(a);
  ASSERT_TRUE(ref1.factorize().ok());
  const std::vector<real_t> x1 = ref1.solve(b);
  Solver ref2;
  ref2.analyze(a2);
  ASSERT_TRUE(ref2.factorize().ok());
  const std::vector<real_t> x2 = ref2.solve(b);
  ASSERT_NE(x1, x2);

  ServiceOptions opt;
  opt.max_concurrent_jobs = 4;
  SolverService svc(opt);
  SessionId id = 0;
  ASSERT_TRUE(svc.open(a, id).ok());
  ASSERT_TRUE(svc.factorize(id).ok());

  std::atomic<int> inconsistent{0};
  std::atomic<int> failures{0};
  const int kSolvers = 3;
  const int kRounds = 25;
  std::vector<std::thread> threads;
  threads.reserve(kSolvers + 1);
  for (int t = 0; t < kSolvers; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        std::vector<real_t> x;
        if (!svc.solve(id, b, x).ok()) {
          ++failures;
        } else if (x != x1 && x != x2) {
          ++inconsistent;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kRounds; ++i) {
      if (!svc.refactorize(id, (i % 2 != 0) ? a.values : a2.values).ok()) {
        ++failures;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(inconsistent.load(), 0);
  EXPECT_EQ(svc.stats().jobs_completed,
            static_cast<count_t>(kSolvers * kRounds + kRounds + 1));
}

TEST(SolverServiceTest, BatchSolveMatchesSolverRefinedSolve) {
  const SparseMatrix a = grid_laplacian_2d(18, 18);
  const index_t nrhs = 5;
  std::vector<real_t> b(static_cast<std::size_t>(a.rows) * nrhs);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<real_t>(i % 13) - 6.0;
  }
  SolverService svc;
  SessionId id = 0;
  ASSERT_TRUE(svc.open(a, id).ok());
  ASSERT_TRUE(svc.factorize(id).ok());
  std::vector<real_t> x;
  ASSERT_TRUE(svc.solve_batch(id, b, nrhs, x).ok());

  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());
  EXPECT_EQ(x, reference.solve_refined(b, nrhs));
}

// A session whose factor is larger than the whole factor cache runs on the
// spill rung, and every solve streams its panels from disk: the batch,
// more columns than one RHS block, still matches a resident Solver bit for
// bit.
TEST(SolverServiceTest, StreamedSessionAnswersLikeResidentSolver) {
  const SparseMatrix a = grid_laplacian_2d(40, 40);
  Solver resident;
  resident.analyze(a);
  ASSERT_TRUE(resident.factorize().ok());
  const WorkingSetEstimate est =
      estimate_working_set(resident.symbolic(), /*ldlt=*/false);
  ASSERT_LT(est.peak_ooc_bytes, est.factor_bytes);

  ServiceOptions opt;
  opt.factor_cache_bytes = (est.peak_ooc_bytes + est.factor_bytes) / 2;
  SolverService svc(opt);
  SessionId id = 0;
  ASSERT_TRUE(svc.open(a, id).ok());
  ASSERT_TRUE(svc.factorize(id).ok());
  SolverReport report;
  ASSERT_TRUE(svc.report(id, report).ok());
  ASSERT_EQ(report.admission, Admission::kSpill);

  const index_t nrhs = kRhsBlock + 8;
  const std::vector<real_t> b = random_block(a.rows, nrhs, 31);
  std::vector<real_t> x;
  ASSERT_TRUE(svc.solve_batch(id, b, nrhs, x).ok());
  EXPECT_TRUE(bitwise_equal(x, resident.solve_refined(b, nrhs)));
  const std::vector<real_t> b1(b.begin(), b.begin() + a.rows);
  ASSERT_TRUE(svc.solve(id, b1, x).ok());
  EXPECT_TRUE(bitwise_equal(x, resident.solve(b1)));
  EXPECT_EQ(svc.stats().factor_cache_bytes, 0u);  // never reloaded
}

// Serving counters survive analyze()'s report reset and accumulate.
TEST(SolverReportTest, ServingCountersAccumulate) {
  const SparseMatrix a = grid_laplacian_2d(14, 14);
  const SparseMatrix a2 = scaled_values(a, 1.5);
  SymbolicCache cache(4);
  SolverOptions opt;
  opt.symbolic_cache = &cache;
  Solver solver(opt);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  ASSERT_TRUE(solver.refactorize(a2.values).ok());
  solver.analyze(a);  // hit (same pattern), counters must accumulate
  EXPECT_EQ(solver.report().symbolic_cache_misses, 1);
  EXPECT_EQ(solver.report().symbolic_cache_hits, 1);
  EXPECT_EQ(solver.report().refactorizes, 1);
}

}  // namespace
}  // namespace parfact
