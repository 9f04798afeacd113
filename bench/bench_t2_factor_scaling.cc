// T2 — Strong scaling of the numeric factorization (the paper's headline
// table): simulated factorization time and aggregate Gflop/s per matrix for
// P = 1 .. 1024 ranks, subtree-to-subcube mapping with 2-D block-cyclic
// fronts. Times come from the calibrated block-level schedule replay
// (perf/dag_sim); the schedule itself is validated against real mpsim
// execution by tests/perf_test.cc. Three schedule columns: the default
// lookahead replay, the task-DAG replay (per-panel extend-add floors), and
// — since dist_factor executes the fan-both schedule for real — the
// *executed* task-dag makespan at the pinned P = 64 point, with the
// wait_any-pool diagnostics (pool waits, out-of-order completions) of that
// run's mpsim::RunStats.
#include <cstdio>

#include "api/service.h"
#include "api/solver.h"
#include "bench/common.h"
#include "dist/dist_factor.h"
#include "perf/dag_sim.h"

using namespace parfact;

int main() {
  bench::heading("T2: factorization strong scaling (2-D multifrontal)");
  const mpsim::MachineModel model = bench::calibrated_model();
  const int ps[] = {1, 4, 16, 64, 256, 1024};
  constexpr int kExecutedP = 64;  // executed fan-both column pinned here
  constexpr DistConfig dag_cfg{DistConfig::Schedule::kTaskDag};
  bench::JsonEmitter json("t2_factor_scaling");

  for (const auto& prob : bench::suite()) {
    const SymbolicFactor sym = analyze_nested_dissection(prob.lower);
    std::printf("\n%-12s (n=%d, %.2f GFLOP)\n", prob.name.c_str(), sym.n,
                static_cast<double>(sym.total_flops) / 1e9);
    std::printf("%6s %12s %12s %10s %12s %9s %12s %13s %9s %9s\n", "P",
                "time [s]", "Gflop/s", "eff", "idle [s]", "overlap",
                "taskdag [s]", "exec dag [s]", "waitany", "ooo");
    double t1 = 0.0;
    for (const int p : ps) {
      const FrontMap map =
          build_front_map(sym, p, MappingStrategy::kSubtree2d);
      const PerfResult r = simulate_factor_time(sym, map, model);
      const PerfResult t = simulate_factor_time(sym, map, model, dag_cfg);
      if (p == 1) t1 = r.makespan;
      auto& row = json.row()
                      .field("matrix", prob.name)
                      .field("n", sym.n)
                      .field("flops", sym.total_flops)
                      .field("ranks", p)
                      .field("time_lookahead_s", r.makespan)
                      .field("time_taskdag_s", t.makespan)
                      .field("efficiency_lookahead", r.efficiency(p))
                      .field("efficiency_taskdag", t.efficiency(p))
                      .field("idle_s", r.idle_wait_seconds)
                      .field("overlap", r.overlap_efficiency);
      if (p == kExecutedP) {
        // The one executed point per matrix: the real numeric program under
        // the fan-both schedule, one mpsim thread per rank.
        const DistFactorResult exec = distributed_factor(
            sym, map, model, FactorKind::kCholesky, {}, {}, {}, dag_cfg);
        count_t wait_any = 0;
        for (const count_t c : exec.run.wait_any_calls) wait_any += c;
        std::printf(
            "%6d %12.4f %12.2f %9.0f%% %12.4f %8.1f%% %12.4f %13.4f "
            "%9lld %9lld\n",
            p, r.makespan,
            static_cast<double>(sym.total_flops) / r.makespan / 1e9,
            100.0 * t1 / r.makespan / p, r.idle_wait_seconds,
            100.0 * r.overlap_efficiency, t.makespan, exec.run.makespan,
            static_cast<long long>(wait_any),
            static_cast<long long>(
                exec.run.messages_completed_out_of_order));
        row.field("time_taskdag_executed_s", exec.run.makespan)
            .field("comm_wait_any_calls", wait_any)
            .field("comm_messages_out_of_order",
                   exec.run.messages_completed_out_of_order);
      } else {
        std::printf("%6d %12.4f %12.2f %9.0f%% %12.4f %8.1f%% %12.4f %13s "
                    "%9s %9s\n",
                    p, r.makespan,
                    static_cast<double>(sym.total_flops) / r.makespan / 1e9,
                    100.0 * t1 / r.makespan / p, r.idle_wait_seconds,
                    100.0 * r.overlap_efficiency, t.makespan, "-", "-", "-");
      }
    }
  }

  // Serving-counter summary: the SolverReport fields the F12 serving engine
  // maintains (shared symbolic-cache traffic, fast-path refactorizes, LRU
  // factor evictions and resident bytes), exercised on the first suite
  // matrix through a two-session service whose factor cache holds only one
  // resident factor — so the second factorize must evict the first.
  {
    const std::vector<TestProblem> probs = bench::suite();
    const SparseMatrix& a = probs.front().lower;
    Solver probe;
    probe.analyze(a);
    if (probe.factorize().failed()) return 1;
    ServiceOptions sopt;
    sopt.factor_cache_bytes = probe.factor_bytes() + 1024;
    SolverService svc(sopt);
    SessionId s1 = 0;
    SessionId s2 = 0;
    if (svc.open(a, s1).failed() || svc.open(a, s2).failed() ||
        svc.factorize(s1).failed() || svc.factorize(s2).failed() ||
        svc.refactorize(s1, a.values).failed()) {
      return 1;
    }
    SolverReport rep;
    if (svc.report(s1, rep).failed()) return 1;
    bench::heading("serving counters (SolverReport)");
    std::printf(
        "symbolic_cache_hits=%lld symbolic_cache_misses=%lld "
        "refactorizes=%lld sessions_evicted=%lld factor_cache_bytes=%s\n",
        static_cast<long long>(rep.symbolic_cache_hits),
        static_cast<long long>(rep.symbolic_cache_misses),
        static_cast<long long>(rep.refactorizes),
        static_cast<long long>(rep.sessions_evicted),
        bench::fmt_bytes(static_cast<double>(rep.factor_cache_bytes))
            .c_str());
    json.row()
        .field("matrix", "serving_counters")
        .field("symbolic_cache_hits", rep.symbolic_cache_hits)
        .field("symbolic_cache_misses", rep.symbolic_cache_misses)
        .field("refactorizes", rep.refactorizes)
        .field("sessions_evicted", rep.sessions_evicted)
        .field("factor_cache_bytes",
               static_cast<long long>(rep.factor_cache_bytes));
  }
  return 0;
}
