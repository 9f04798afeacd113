// F9 — Solve-phase throughput. Two panels:
//
//  (a) Single node: per-RHS solve() loop versus one solve_multi() call at
//      widths 1/4/16/64. solve_multi() streams every factor panel once per
//      RHS block instead of once per right-hand side, so bytes/solve drops
//      by the block width and throughput rises.
//
//  (b) Distributed: the per-RHS-block solve protocol at rhs_block 8 versus
//      one block (rhs_block = nrhs), across rank counts on two machine
//      models. Narrow blocks overlap block k+1's messages with block k's
//      compute, so they pay when a block's wire time (rhs_block x block
//      rows x 8 x beta) is comparable to the per-message latency alpha —
//      the low-latency model — and lose on a high-latency network where
//      message count dominates.
//
// `--smoke` shrinks the problem and asserts the two headline claims
// (solve_multi() throughput >= 2x the solve() loop at nrhs >= 16; 8-column
// blocks idle less than one block at P = 64 on the low-latency model);
// nonzero exit on failure.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "api/solver.h"
#include "bench/common.h"
#include "dist/dist_factor.h"
#include "dist/dist_solve.h"
#include "dist/mapping.h"
#include "solve/solve_schedule.h"
#include "sparse/gen.h"
#include "support/prng.h"

using namespace parfact;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<real_t> random_rhs(index_t n, index_t nrhs, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : b) v = rng.next_real(-1, 1);
  return b;
}

/// Best-of-`reps` wall time of `fn` (the container is noisy; the minimum is
/// the least-contaminated estimate of the true cost).
template <class Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::heading("F9: solve-phase throughput");
  int failures = 0;

  // --- (a) Single node: solve() loop vs solve_multi(). ---
  // 3-D elasticity is the serving-workload shape (3 dof/node gives dense
  // supernode panels, where streaming each panel across a RHS block pays
  // most); the distributed panel below uses a Laplacian for comparability
  // with F2.
  const SparseMatrix a =
      smoke ? elasticity_3d(8, 8, 8) : elasticity_3d(12, 12, 12);
  Solver solver;
  solver.analyze(a);
  if (solver.factorize().failed()) {
    std::printf("factorization failed\n");
    return 1;
  }
  const index_t n = a.rows;
  const int reps = smoke ? 3 : 5;
  // Bytes one solve_multi() moves: both sweeps stream every factor panel
  // once per RHS block, and each column's arena slice is written and read.
  const SolveSchedule schedule(solver.symbolic());
  const auto sweep_bytes = [&](index_t nrhs) {
    const double blocks = static_cast<double>(
        (nrhs + schedule.rhs_block - 1) / schedule.rhs_block);
    const double panel_bytes =
        2.0 * static_cast<double>(solver.symbolic().nnz_stored) *
        sizeof(real_t);
    const double arena_bytes =
        2.0 * static_cast<double>(schedule.arena_entries_per_rhs()) *
        static_cast<double>(nrhs) * sizeof(real_t);
    return blocks * panel_bytes + arena_bytes;
  };

  std::printf("\n## single node, n=%lld (per-RHS solve() loop vs "
              "solve_multi())\n", static_cast<long long>(n));
  std::printf("%6s %12s %12s %9s %14s %14s\n", "nrhs", "loop [s]",
              "multi [s]", "speedup", "solves/s", "bytes/solve");
  double best_speedup_wide = 0.0;
  for (const index_t nrhs : {1, 4, 16, 64}) {
    const std::vector<real_t> b = random_rhs(n, nrhs, 17);
    std::vector<real_t> x_loop;
    const double t_loop = best_of(reps, [&] {
      x_loop.assign(b.size(), 0.0);
      for (index_t j = 0; j < nrhs; ++j) {
        const auto xj = solver.solve(
            {b.data() + static_cast<std::size_t>(j) * n,
             static_cast<std::size_t>(n)});
        std::copy(xj.begin(), xj.end(),
                  x_loop.begin() + static_cast<std::size_t>(j) * n);
      }
    });
    std::vector<real_t> x_multi;
    const double t_multi =
        best_of(reps, [&] { x_multi = solver.solve_multi(b, nrhs); });
    const double speedup = t_loop / t_multi;
    if (nrhs >= 16) best_speedup_wide = std::max(best_speedup_wide, speedup);
    std::printf("%6lld %12.5f %12.5f %8.2fx %14.1f %14s\n",
                static_cast<long long>(nrhs), t_loop, t_multi, speedup,
                static_cast<double>(nrhs) / t_multi,
                bench::fmt_bytes(sweep_bytes(nrhs) /
                                 static_cast<double>(nrhs))
                    .c_str());
  }
  if (best_speedup_wide < 2.0) {
    std::printf("# FAIL: solve_multi() below 2x the solve() loop at "
                "nrhs >= 16 (best %.2fx)\n", best_speedup_wide);
    ++failures;
  }

  // --- (b) Distributed: 8-column blocks vs one block. ---
  const SparseMatrix ad = smoke ? grid_laplacian_3d(12, 12, 12, 7)
                                : grid_laplacian_3d(14, 14, 14, 7);
  const SymbolicFactor sym = analyze(ad);
  const index_t nrhs = 32;
  const std::vector<real_t> b = random_rhs(sym.n, nrhs, 23);
  mpsim::MachineModel low_lat;  // fast interconnect: wire time dominates
  low_lat.alpha = 1e-7;
  const struct {
    const char* name;
    mpsim::MachineModel model;
  } models[] = {{"low-latency (alpha=0.1us)", low_lat},
                {"commodity (alpha=5us)", mpsim::MachineModel{}}};

  DistSolveConfig cfg_narrow;
  cfg_narrow.rhs_block = 8;
  DistSolveConfig cfg_one;
  cfg_one.rhs_block = nrhs;

  for (const auto& m : models) {
    std::printf("\n## distributed, n=%lld nrhs=%lld, machine: %s\n",
                static_cast<long long>(sym.n), static_cast<long long>(nrhs),
                m.name);
    std::printf("%6s %10s %12s %12s %9s %8s %12s\n", "P", "rhs_block",
                "makespan", "idle [s]", "overlap", "msgs", "max |dx|");
    for (const int p : {4, 16, 64}) {
      const FrontMap map =
          build_front_map(sym, p, MappingStrategy::kSubtree2d, 32);
      const DistFactorResult dist = distributed_factor(sym, map);
      const DistSolveResult narrow = distributed_solve(
          sym, map, dist.factor, b, nrhs, m.model, {}, cfg_narrow);
      const DistSolveResult one = distributed_solve(
          sym, map, dist.factor, b, nrhs, m.model, {}, cfg_one);
      // The block widths round differently, never by more than a solve's
      // own error.
      double max_dx = 0.0;
      for (std::size_t i = 0; i < one.x.size(); ++i) {
        max_dx = std::max(max_dx, std::abs(narrow.x[i] - one.x[i]));
      }
      if (!(max_dx <= 1e-10)) {
        std::printf("# FAIL: rhs_block 8 and one block differ by %.3g at "
                    "P=%d\n", max_dx, p);
        ++failures;
      }
      if (m.model.alpha < 1e-6 && p >= 64 &&
          narrow.run.idle_wait_seconds >= one.run.idle_wait_seconds) {
        std::printf("# FAIL: 8-column blocks idle not below one block at "
                    "P=%d on the low-latency model (%.5g vs %.5g)\n", p,
                    narrow.run.idle_wait_seconds, one.run.idle_wait_seconds);
        ++failures;
      }
      for (const auto* r : {&narrow, &one}) {
        std::printf("%6d %10lld %12.6f %12.5f %8.1f%% %8lld %12.3g\n", p,
                    static_cast<long long>(r == &narrow ? cfg_narrow.rhs_block
                                                        : cfg_one.rhs_block),
                    r->run.makespan, r->run.idle_wait_seconds,
                    100.0 * r->run.overlap_efficiency,
                    static_cast<long long>(r->run.total_messages), max_dx);
      }
    }
  }

  std::printf("\n# expected shape: solve_multi() speedup grows with nrhs "
              "(panel traffic amortized over the block); 8-column blocks at "
              "or below one block's idle on the low-latency model, above it "
              "on the commodity one (message count dominates); "
              "failures=%d\n", failures);
  return failures == 0 ? 0 : 1;
}
