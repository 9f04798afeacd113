// Tests for resource-governed execution: memory budgets with admission
// control and the in-core -> spill -> rejected degradation ladder,
// cooperative cancellation/deadlines across every engine, the Solver facade
// (budget/deadline options, invalid-input diagnosis), and the mpsim
// wall-clock watchdog. The standing contract is exercised throughout: a
// degraded or interrupted run either produces a factor bitwise identical to
// the unconstrained serial one, or a clean diagnosed Status — never a
// crash, a leak, or a poisoned Solver.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/solver.h"
#include "mf/abft.h"
#include "mf/governed.h"
#include "mf/multifrontal.h"
#include "mf/ooc.h"
#include "mpsim/machine.h"
#include "runtime/scheduler.h"
#include "runtime/task_graph.h"
#include "sparse/gen.h"
#include "support/prng.h"
#include "support/resource.h"
#include "support/status.h"
#include "support/thread_pool.h"
#include "symbolic/symbolic_factor.h"
#include "symbolic/working_set.h"

namespace parfact {
namespace {

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

std::string scratch_path(const char* tag) {
  std::ostringstream os;
  os << "governance_test_" << tag << "_scratch.bin";
  return os.str();
}

void expect_panels_bitwise_equal(const SymbolicFactor& sym,
                                 const CholeskyFactor& a,
                                 const CholeskyFactor& b) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    for (index_t j = 0; j < pa.cols; ++j) {
      for (index_t i = j; i < pa.rows; ++i) {
        ASSERT_EQ(pa.at(i, j), pb.at(i, j))
            << "supernode " << s << " entry (" << i << ", " << j << ")";
      }
    }
  }
}

/// Streams every panel back from disk and compares it bitwise against the
/// in-core reference factor.
void expect_spill_matches_incore(const SymbolicFactor& sym,
                                 const OocCholeskyFactor& spilled,
                                 const CholeskyFactor& reference) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView ref = reference.panel(s);
    std::vector<real_t> buf(static_cast<std::size_t>(ref.rows) * ref.cols);
    spilled.read_panel(s, MatrixView{buf.data(), ref.rows, ref.cols, ref.rows});
    const ConstMatrixView got{buf.data(), ref.rows, ref.cols, ref.rows};
    for (index_t j = 0; j < ref.cols; ++j) {
      for (index_t i = j; i < ref.rows; ++i) {
        ASSERT_EQ(got.at(i, j), ref.at(i, j))
            << "supernode " << s << " entry (" << i << ", " << j << ")";
      }
    }
  }
}

// --- ResourceBudget / Reservation ------------------------------------------

TEST(ResourceBudget, EnforcesCeilingAndTracksPeak) {
  ResourceBudget budget(1000);
  EXPECT_TRUE(budget.limited());
  EXPECT_TRUE(budget.try_reserve(600));
  EXPECT_FALSE(budget.try_reserve(500));  // 1100 > 1000
  EXPECT_TRUE(budget.try_reserve(400));
  EXPECT_EQ(budget.live_bytes(), 1000u);
  EXPECT_EQ(budget.peak_bytes(), 1000u);
  budget.release(600);
  EXPECT_EQ(budget.live_bytes(), 400u);
  EXPECT_EQ(budget.peak_bytes(), 1000u);  // high-water mark latches
  EXPECT_TRUE(budget.try_reserve(100));
  budget.release(500);
  EXPECT_EQ(budget.live_bytes(), 0u);
}

TEST(ResourceBudget, UnlimitedStillMetersPeak) {
  ResourceBudget budget;  // limit 0 = unlimited
  EXPECT_FALSE(budget.limited());
  EXPECT_TRUE(budget.try_reserve(1u << 30));
  EXPECT_EQ(budget.peak_bytes(), std::size_t{1} << 30);
  budget.release(1u << 30);
}

TEST(Reservation, RaiiReleasesOnDestruction) {
  ResourceBudget budget(100);
  {
    auto r = Reservation::acquire(budget, 80);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->held());
    EXPECT_EQ(r->bytes(), 80u);
    EXPECT_FALSE(Reservation::acquire(budget, 30).has_value());
    Reservation moved = std::move(*r);
    EXPECT_FALSE(r->held());
    EXPECT_EQ(budget.live_bytes(), 80u);
  }
  EXPECT_EQ(budget.live_bytes(), 0u);
  EXPECT_EQ(budget.peak_bytes(), 80u);
}

// --- CancelSource / CancelToken --------------------------------------------

TEST(CancelToken, DefaultTokenNeverCancels) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), StatusCode::kOk);
  EXPECT_NO_THROW(token.throw_if_cancelled());
}

TEST(CancelToken, RequestCancelLatchesReason) {
  CancelSource source;
  CancelToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  source.request_cancel();
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), StatusCode::kCancelled);
  try {
    token.throw_if_cancelled();
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kCancelled);
  }
}

TEST(CancelToken, ExpiredDeadlineFiresOnNextPoll) {
  CancelSource source;
  source.set_deadline_after(0.0);
  CancelToken token = source.token();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), StatusCode::kDeadlineExceeded);
}

TEST(CancelToken, TripAfterPollsIsDeterministic) {
  CancelSource source;
  source.trip_after_polls(3);
  CancelToken token = source.token();
  EXPECT_FALSE(token.cancelled());  // poll 1
  EXPECT_FALSE(token.cancelled());  // poll 2
  EXPECT_TRUE(token.cancelled());   // poll 3 trips
  EXPECT_EQ(token.reason(), StatusCode::kCancelled);
}

// --- Working-set estimate exactness ----------------------------------------

// The symbolic estimate must not merely bound the measured multifrontal
// peak — it replays the serial postorder's exact alloc/free order, so the
// numbers agree to the byte. That is what makes admission decisions safe to
// take before any numeric allocation.
TEST(WorkingSetEstimate, MatchesMeasuredInCorePeakExactly) {
  const SparseMatrix a = grid_laplacian_3d(7, 6, 5);
  const SymbolicFactor sym = analyze(a);
  const WorkingSetEstimate est = estimate_working_set(sym, false);
  FactorStats stats;
  const CholeskyFactor factor = multifrontal_factor(sym, &stats);
  EXPECT_EQ(est.peak_update_bytes, stats.peak_update_bytes);
  EXPECT_EQ(est.factor_bytes,
            static_cast<std::size_t>(factor.stored_entries()) *
                sizeof(real_t));
  // The same arena discipline under LDLᵀ and with the ABFT hooks on.
  FactorStats ldlt;
  (void)multifrontal_factor(sym, &ldlt, FactorKind::kLdlt);
  EXPECT_EQ(estimate_working_set(sym, true).peak_update_bytes,
            ldlt.peak_update_bytes);
  FactorStats abft;
  (void)multifrontal_factor_abft(sym, &abft);
  EXPECT_EQ(abft.abft_detections, 0);
  EXPECT_EQ(est.peak_update_bytes, abft.peak_update_bytes);
}

TEST(WorkingSetEstimate, MatchesMeasuredOocResidentPeakExactly) {
  const SparseMatrix a = grid_laplacian_2d(24, 17);
  const SymbolicFactor sym = analyze(a);
  const WorkingSetEstimate est = estimate_working_set(sym, false);
  FactorStats stats;
  const std::string path = scratch_path("ooc_peak");
  const OocCholeskyFactor factor = multifrontal_factor_ooc(sym, path, &stats);
  EXPECT_EQ(est.peak_ooc_update_bytes, stats.peak_update_bytes);
  EXPECT_LT(est.peak_ooc_bytes, est.peak_incore_bytes);
}

// --- Governed degradation ladder -------------------------------------------

TEST(GovernedFactorize, UnlimitedBudgetRunsInCore) {
  const SparseMatrix a = grid_laplacian_2d(20, 19);
  const SymbolicFactor sym = analyze(a);
  ResourceBudget budget;  // unlimited
  GovernedOptions opts;
  opts.spill_path = scratch_path("unlimited");
  GovernedFactorizeResult result =
      multifrontal_factorize_governed(sym, budget, opts);
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.admission, Admission::kUnlimited);
  ASSERT_TRUE(result.factor.has_value());
  EXPECT_FALSE(result.ooc.has_value());
  EXPECT_EQ(result.bytes_spilled, 0u);
  EXPECT_EQ(budget.peak_bytes(), result.estimate.peak_incore_bytes);
}

TEST(GovernedFactorize, TightBudgetSpillsBitwiseIdentical) {
  const SparseMatrix a = grid_laplacian_2d(20, 19);
  const SymbolicFactor sym = analyze(a);
  const WorkingSetEstimate est = estimate_working_set(sym, false);
  // Reference: unconstrained serial factor.
  const CholeskyFactor reference = multifrontal_factor(sym);

  // Admit only the OOC resident set: one byte short of in-core.
  ResourceBudget budget(est.peak_incore_bytes - 1);
  GovernedOptions opts;
  opts.spill_path = scratch_path("spill");
  GovernedFactorizeResult result =
      multifrontal_factorize_governed(sym, budget, opts);
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.admission, Admission::kSpill);
  ASSERT_TRUE(result.ooc.has_value());
  EXPECT_GT(result.bytes_spilled, 0u);
  expect_spill_matches_incore(sym, *result.ooc, reference);
}

TEST(GovernedFactorize, HopelessBudgetRejectsWithDiagnosis) {
  const SparseMatrix a = grid_laplacian_2d(20, 19);
  const SymbolicFactor sym = analyze(a);
  const WorkingSetEstimate est = estimate_working_set(sym, false);
  ResourceBudget budget(est.peak_ooc_bytes - 1);
  GovernedOptions opts;
  opts.spill_path = scratch_path("reject");
  GovernedFactorizeResult result =
      multifrontal_factorize_governed(sym, budget, opts);
  EXPECT_EQ(result.status.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(result.admission, Admission::kRejected);
  EXPECT_FALSE(result.factor.has_value());
  EXPECT_FALSE(result.ooc.has_value());
  EXPECT_FALSE(result.reservation.held());
  EXPECT_EQ(budget.live_bytes(), 0u);  // nothing leaks past a rejection
  // The diagnosis carries estimated vs budgeted bytes.
  EXPECT_NE(result.status.message.find("memory budget too small"),
            std::string::npos);
  EXPECT_NE(result.status.message.find(std::to_string(est.peak_incore_bytes)),
            std::string::npos);
  EXPECT_NE(result.status.message.find(std::to_string(budget.limit_bytes())),
            std::string::npos);
}

TEST(GovernedFactorize, NoSpillPathGoesStraightToRejected) {
  const SparseMatrix a = grid_laplacian_2d(12, 11);
  const SymbolicFactor sym = analyze(a);
  const WorkingSetEstimate est = estimate_working_set(sym, false);
  ResourceBudget budget(est.peak_incore_bytes - 1);
  GovernedFactorizeResult result =
      multifrontal_factorize_governed(sym, budget, {});
  EXPECT_EQ(result.status.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(result.admission, Admission::kRejected);
}

// --- Cancellation across the engines ---------------------------------------

// Property: cancellation tripped at a randomized task index never deadlocks
// and never corrupts state — the engine unwinds with kCancelled, and an
// immediately following unconstrained run is bitwise identical to a run
// that was never interrupted.
TEST(Cancellation, RandomTripIndexThenCleanRerunBitwiseIdentical) {
  const SparseMatrix a = grid_laplacian_2d(17, 16);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor reference = multifrontal_factor(sym);
  Prng rng(1234);
  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    for (int trial = 0; trial < 6; ++trial) {
      const auto trip =
          static_cast<std::int64_t>(rng.next_u64() %
                                    static_cast<std::uint64_t>(
                                        sym.n_supernodes)) +
          1;
      CancelSource source;
      source.trip_after_polls(trip);
      try {
        if (threads == 1) {
          (void)multifrontal_factor(sym, nullptr, FactorKind::kCholesky, {},
                                    source.token());
        } else {
          (void)multifrontal_factor_parallel(sym, pool, nullptr,
                                             FactorKind::kCholesky,
                                             kCoopFrontFlops, {},
                                             source.token());
        }
        FAIL() << "expected cancellation at poll " << trip;
      } catch (const StatusError& e) {
        EXPECT_EQ(e.status().code, StatusCode::kCancelled);
      }
      // Pool and state are immediately reusable: a clean rerun on the same
      // pool reproduces the uninterrupted factor bit for bit.
      const CholeskyFactor rerun =
          threads == 1 ? multifrontal_factor(sym)
                       : multifrontal_factor_parallel(sym, pool);
      expect_panels_bitwise_equal(sym, reference, rerun);
    }
  }
}

TEST(Cancellation, SchedulerDrainsGraphAndStaysReusable) {
  ThreadPool pool(3);
  CancelSource source;
  source.trip_after_polls(4);
  rt::TaskGraph graph;
  std::atomic<int> ran{0};
  for (rt::tag_t t = 0; t < 32; ++t) {
    graph.add_task(t, [&ran] { ran.fetch_add(1); });
    if (t > 0) graph.declare_deps(t, {t - 1});
  }
  try {
    (void)rt::run_graph(graph, pool, source.token());
    FAIL() << "expected cancellation";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kCancelled);
  }
  EXPECT_LT(ran.load(), 32);  // cancelled within one task granule
  // The pool survives: a fresh graph runs to completion on it.
  rt::TaskGraph again;
  std::atomic<int> ran2{0};
  for (rt::tag_t t = 0; t < 16; ++t) {
    again.add_task(t, [&ran2] { ran2.fetch_add(1); });
  }
  (void)rt::run_graph(again, pool);
  EXPECT_EQ(ran2.load(), 16);
}

TEST(Cancellation, OocEngineUnwindsAndDeletesNothingItShouldNot) {
  const SparseMatrix a = grid_laplacian_2d(15, 14);
  const SymbolicFactor sym = analyze(a);
  CancelSource source;
  source.trip_after_polls(2);
  const std::string path = scratch_path("cancel");
  try {
    (void)multifrontal_factor_ooc(sym, path, nullptr, {},
                                  FactorKind::kCholesky, source.token());
    FAIL() << "expected cancellation";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kCancelled);
  }
  // The factor object unwound, so its scratch file is gone.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

// --- Solver facade ----------------------------------------------------------

TEST(SolverGovernance, BudgetedSolverSpillsAndSolves) {
  const SparseMatrix a = grid_laplacian_2d(20, 19);
  // Probe with the Solver's own ordering: its symbolic factor (fill-reducing
  // permutation applied) is what admission sees, not plain analyze(a)'s.
  Solver solver;
  solver.analyze(a);
  const WorkingSetEstimate est =
      estimate_working_set(solver.symbolic(), false);
  solver.set_memory_budget_bytes(est.peak_incore_bytes - 1);
  const Status status = solver.factorize();
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(solver.report().admission, Admission::kSpill);
  EXPECT_GT(solver.report().bytes_spilled, 0u);
  EXPECT_GT(solver.report().peak_bytes, 0u);
  EXPECT_LE(solver.report().peak_bytes, est.peak_incore_bytes - 1);
  EXPECT_TRUE(solver.has_factor());  // true for a spilled factor too

  const auto b = random_vector(a.rows, 7);
  const auto x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-10);
  const auto xr = solver.solve_refined(b);
  EXPECT_LT(solver.residual(xr, b), 1e-12);
}

TEST(SolverGovernance, HopelessBudgetReturnsResourceExhausted) {
  const SparseMatrix a = grid_laplacian_2d(20, 19);
  SolverOptions opts;
  opts.memory_budget_bytes = 1024;  // not even the OOC resident set fits
  Solver solver(opts);
  solver.analyze(a);
  const Status status = solver.factorize();
  EXPECT_EQ(status.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(solver.report().admission, Admission::kRejected);
  EXPECT_FALSE(solver.has_factor());
  // The same instance recovers: lift the budget, factorize, solve.
  solver.set_memory_budget_bytes(0);
  ASSERT_TRUE(solver.factorize().ok());
  const auto b = random_vector(a.rows, 9);
  EXPECT_LT(solver.residual(solver.solve(b), b), 1e-10);
}

TEST(SolverGovernance, CancelBeforeFactorizeThenCleanRerunIdentical) {
  const SparseMatrix a = grid_laplacian_2d(18, 17);
  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());

  Solver solver;
  solver.analyze(a);
  solver.cancel();  // arms the *next* operation's scope
  const Status status = solver.factorize();
  EXPECT_EQ(status.code, StatusCode::kCancelled);
  EXPECT_FALSE(solver.has_factor());
  // The cancel scope was consumed: the same instance completes cleanly and
  // matches the uninterrupted run bit for bit.
  ASSERT_TRUE(solver.factorize().ok());
  expect_panels_bitwise_equal(reference.symbolic(), reference.factor(),
                              solver.factor());
}

TEST(SolverGovernance, ExpiredDeadlineReturnsDeadlineExceeded) {
  const SparseMatrix a = grid_laplacian_2d(18, 17);
  Solver solver;
  solver.analyze(a);
  solver.set_deadline_seconds(1e-12);  // fires on the first poll
  const Status status = solver.factorize();
  EXPECT_EQ(status.code, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(solver.has_factor());
  solver.set_deadline_seconds(0.0);
  ASSERT_TRUE(solver.factorize().ok());
  const auto b = random_vector(a.rows, 3);
  EXPECT_LT(solver.residual(solver.solve(b), b), 1e-10);
}

// --- Invalid-input diagnosis (satellite a) ---------------------------------

TEST(SolverInvalidInput, ZeroOrMismatchedRhsIsDiagnosedNotAsserted) {
  const SparseMatrix a = grid_laplacian_2d(9, 8);
  Solver solver;
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const auto b = random_vector(a.rows, 5);

  const auto expect_invalid = [](auto&& fn) {
    try {
      fn();
      FAIL() << "expected StatusError(kInvalidInput)";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
      EXPECT_FALSE(e.status().message.empty());
    }
  };
  expect_invalid([&] { (void)solver.solve_multi(b, 0); });
  expect_invalid([&] { (void)solver.solve_refined(b, 3); });  // wrong length
  expect_invalid([&] {
    std::vector<real_t> short_b(static_cast<std::size_t>(a.rows) - 1);
    (void)solver.solve_multi(short_b, 1);
  });

  std::vector<real_t> x;
  const Status bad = solver.factorize_and_solve(b, 0, x);
  EXPECT_EQ(bad.code, StatusCode::kInvalidInput);
}

// --- mpsim wall-clock watchdog ----------------------------------------------

TEST(MpsimWatchdog, LivelockedRunTimesOutInsteadOfHanging) {
  mpsim::MachineModel model;
  mpsim::FaultPlan plan;
  plan.run_timeout_host_seconds = 0.5;
  try {
    (void)mpsim::run_spmd(2, model, plan, [](mpsim::Comm& comm) {
      if (comm.rank() == 0) {
        // Rank 1 never sends: without the watchdog this waits out the full
        // 30 s receive safety net.
        mpsim::Request r = comm.irecv(1, 42);
        (void)comm.wait(r);
      }
    });
    FAIL() << "expected kCommTimeout";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kCommTimeout);
    EXPECT_NE(e.status().message.find("wall-clock budget"), std::string::npos);
  }
}

TEST(MpsimWatchdog, CompletedRunIsUntouchedByTheBudget) {
  mpsim::MachineModel model;
  mpsim::FaultPlan plan;
  plan.run_timeout_host_seconds = 30.0;
  const mpsim::RunStats stats =
      mpsim::run_spmd(2, model, plan, [](mpsim::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_vec(1, 5, std::vector<double>{2.0});
          return;
        }
        mpsim::Request r = comm.irecv(0, 5);
        if (comm.wait_vec<double>(r) != std::vector<double>{2.0}) {
          throw Error("bad payload");
        }
      });
  EXPECT_GE(stats.makespan, 0.0);
}

TEST(MpsimWatchdog, NegativeBudgetIsRejected) {
  mpsim::MachineModel model;
  mpsim::FaultPlan plan;
  plan.run_timeout_host_seconds = -1.0;
  try {
    (void)mpsim::run_spmd(1, model, plan, [](mpsim::Comm&) {});
    FAIL() << "expected kInvalidInput";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
  }
}

// The budget becomes a steady_clock deadline; past the clock's range (or at
// +inf, the natural "no limit") it would expire at once, so it is rejected.
TEST(MpsimWatchdog, BudgetBeyondTheClockIsRejected) {
  for (const double budget : {1e12, std::numeric_limits<double>::infinity()}) {
    mpsim::FaultPlan plan;
    plan.run_timeout_host_seconds = budget;
    try {
      (void)mpsim::run_spmd(1, {}, plan, [](mpsim::Comm&) {});
      FAIL() << "expected kInvalidInput for a budget of " << budget;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code, StatusCode::kInvalidInput) << budget;
      EXPECT_NE(e.status().message.find("run_timeout_host_seconds"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace parfact
