// F10 — Unified task-DAG runtime vs the static two-phase schedule.
//
// Five exhibits:
//   1. Bitwise identity: the task-DAG factorization must equal the serial
//      factor exactly (values, LDLᵀ diagonal) at every thread count.
//   2. Deterministic virtual makespan of the real task graphs (the exact
//      graphs the engine executes, replayed by TaskGraph::simulate_makespan)
//      against a virtual replay of the static two-phase schedule, rebuilt
//      here as a bench-local graph (the engine itself is gone) — same cost
//      model, so the gap is pure scheduling: no phase barrier, top fronts
//      overlap leftover subtree work, TRSM slabs pipeline into update slabs.
//   3. Phase fusion: fused factor+forward-solve graph vs factor graph +
//      barrier + forward-solve chain.
//   4. The distributed analogue via perf/dag_sim: kTaskDag replay (per-panel
//      extend-add floors) vs kLookahead at large rank counts.
//   5. Wall clock: the serial driver vs the task DAG on 4 threads.
//
// The wall-clock exhibit runs only when the host has >= 4 hardware threads;
// on smaller hosts the virtual replay is the deterministic evidence (which
// is also what CI asserts via --smoke).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/solver.h"
#include "bench/common.h"
#include "dense/kernels.h"
#include "mf/dag_factor.h"
#include "mf/multifrontal.h"
#include "perf/dag_sim.h"
#include "runtime/task_graph.h"
#include "solve/solve_schedule.h"
#include "support/thread_pool.h"
#include "support/timer.h"

using namespace parfact;

namespace {

/// Mirrors FactorDag's slab sizing (dag_factor.cc) so the two-phase virtual
/// schedule splits its cooperative kernels exactly like the task DAG does.
constexpr count_t kVTaskMinFlops = 4'000'000;
constexpr index_t kVSlabMinRows = 64;

index_t vslab_count(count_t flops, index_t rows, int workers) {
  if (workers <= 1 || flops < kVTaskMinFlops) return 1;
  const index_t by_rows = rows / kVSlabMinRows;
  const index_t by_workers = 4 * static_cast<index_t>(workers);
  const auto by_flops = static_cast<index_t>(flops / kVTaskMinFlops) + 1;
  return std::max<index_t>(1, std::min({by_rows, by_workers, by_flops}));
}

/// Builds the static two-phase schedule as a task graph with the same flop
/// costs the DAG engine uses: maximal light subtrees as one task each, a
/// global barrier, then the heavy top-of-tree fronts one at a time with
/// stage-barriered intra-front slabs (parallel_for semantics: every worker
/// joins each kernel stage of the front). Task bodies are empty — this
/// graph exists only to be replayed by simulate_makespan.
void build_two_phase_graph(rt::TaskGraph& g, const SymbolicFactor& sym,
                           count_t coop, int workers) {
  const index_t ns = sym.n_supernodes;
  std::vector<char> heavy(static_cast<std::size_t>(ns), 0);
  std::vector<count_t> subtree_flops(static_cast<std::size_t>(ns), 0);
  std::vector<std::vector<index_t>> children(static_cast<std::size_t>(ns));
  for (index_t s = 0; s < ns; ++s) {
    heavy[s] = sym.sn_flops[s] >= coop ? 1 : 0;
    subtree_flops[s] = sym.sn_flops[s];
  }
  for (index_t s = 0; s < ns; ++s) {  // children precede parents (postorder)
    const index_t par = sym.sn_parent[s];
    if (par == kNone) continue;
    children[static_cast<std::size_t>(par)].push_back(s);
    if (heavy[s]) heavy[par] = 1;
    subtree_flops[par] += subtree_flops[s];
  }

  // Phase 1: independent light-subtree tasks.
  std::vector<rt::tag_t> phase1;
  for (index_t s = 0; s < ns; ++s) {
    if (heavy[s]) continue;
    const index_t par = sym.sn_parent[s];
    if (par != kNone && !heavy[par]) continue;  // interior of a subtree
    const rt::tag_t tag =
        rt::make_tag(rt::TaskKind::kUser, static_cast<std::uint64_t>(s));
    g.add_task(tag, [] {},
               std::max<double>(static_cast<double>(subtree_flops[s]), 1.0));
    phase1.push_back(tag);
  }
  const rt::tag_t barrier =
      rt::make_tag(rt::TaskKind::kUser, static_cast<std::uint64_t>(ns) + 1);
  g.add_task(barrier, [] {}, 1.0);
  g.declare_deps(barrier, phase1);

  // Phase 2: heavy fronts sequentially, every worker inside one front.
  std::vector<rt::tag_t> prev{barrier};
  for (index_t s = 0; s < ns; ++s) {
    if (!heavy[s]) continue;
    const auto su = static_cast<std::size_t>(s);
    const auto k = static_cast<std::uint64_t>(s);
    const index_t p = sym.sn_cols(s);
    const index_t b = sym.sn_below(s);

    count_t asm_cost = sym.a.col_ptr[sym.sn_start[s + 1]] -
                       sym.a.col_ptr[sym.sn_start[s]];
    for (index_t c : children[su]) {
      const count_t cb = sym.sn_below(c);
      asm_cost += cb * (cb + 1) / 2;
    }
    const rt::tag_t asm_tag = rt::make_tag(rt::TaskKind::kAssemble, k);
    g.add_task(asm_tag, [] {},
               static_cast<double>(std::max<count_t>(asm_cost, 1)));
    g.declare_deps(asm_tag, prev);

    const rt::tag_t potrf = rt::make_tag(rt::TaskKind::kPotrf, k);
    g.add_task(potrf, [] {},
               static_cast<double>(
                   std::max<count_t>(partial_cholesky_flops(p, p), 1)));
    g.declare_deps(potrf, {asm_tag});
    if (b == 0) {
      prev = {potrf};
      continue;
    }

    const count_t trsm_flops = static_cast<count_t>(b) * p * (p + 1);
    const index_t st = vslab_count(trsm_flops, b, workers);
    std::vector<rt::tag_t> trsm_tags;
    for (index_t t = 0; t < st; ++t) {
      const index_t r0 = t * b / st;
      const index_t r1 = (t + 1) * b / st;
      const rt::tag_t tag =
          rt::make_tag(rt::TaskKind::kTrsm, k, static_cast<std::uint64_t>(t));
      g.add_task(tag, [] {},
                 static_cast<double>(std::max<count_t>(
                     trsm_flops * (r1 - r0) / std::max<index_t>(b, 1), 1)));
      g.declare_deps(tag, {potrf});
      trsm_tags.push_back(tag);
    }

    const count_t upd_flops = static_cast<count_t>(b) * b * p;
    index_t slabs = vslab_count(upd_flops, b, workers);
    if (!syrk_splittable(b, p)) slabs = 1;
    const std::vector<index_t> bound = syrk_slab_bounds(b, slabs);
    std::vector<rt::tag_t> upd_tags;
    for (index_t t = 0; t < slabs; ++t) {
      const index_t r0 = bound[static_cast<std::size_t>(t)];
      const index_t r1 = bound[static_cast<std::size_t>(t) + 1];
      const rt::tag_t tag = rt::make_tag(rt::TaskKind::kUpdate, k,
                                         static_cast<std::uint64_t>(t));
      const count_t slab_flops =
          std::max<count_t>(static_cast<count_t>(r1 - r0) * (r1 + r0) * p, 1);
      g.add_task(tag, [] {}, static_cast<double>(slab_flops));
      // parallel_for barriers between the TRSM and SYRK stages: every
      // update slab waits for the whole panel (unlike the DAG engine's
      // per-slab pipelining).
      g.declare_deps(tag, trsm_tags);
      upd_tags.push_back(tag);
    }
    prev = std::move(upd_tags);
  }
}

/// Appends the forward-solve tasks of the first RHS block to `g`, either
/// fused (deps = the factor DAG's panel-ready tags) or unfused (deps = a
/// barrier over the whole factor graph — the classic phase split).
void append_forward_solve(rt::TaskGraph& g, const SymbolicFactor& sym,
                          const SolveSchedule& sched, index_t w0,
                          const detail::FactorDag& dag) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t p = sym.sn_cols(s);
    const index_t b = sym.sn_below(s);
    const count_t work =
        static_cast<count_t>(w0) *
        (static_cast<count_t>(p) * p + 2 * static_cast<count_t>(p) * b);
    const rt::tag_t tag =
        rt::make_tag(rt::TaskKind::kSolveFwd, static_cast<std::uint64_t>(s));
    g.add_task(tag, [] {},
               static_cast<double>(std::max<count_t>(work, 1)));
    std::vector<rt::tag_t> deps(dag.panel_ready(s).begin(),
                                dag.panel_ready(s).end());
    index_t last_src = kNone;
    for (index_t q = sched.in_ptr[s]; q < sched.in_ptr[s + 1]; ++q) {
      const index_t src = sched.in[q].src;
      if (src == last_src) continue;
      last_src = src;
      deps.push_back(rt::make_tag(rt::TaskKind::kSolveFwd,
                                  static_cast<std::uint64_t>(src)));
    }
    g.declare_deps(tag, deps);
  }
}

/// As append_forward_solve, but with the classic phase barrier: every
/// forward task additionally waits on the whole factor graph (expressed via
/// the root supernodes' panel-ready tags, which transitively cover it).
void append_forward_solve_barriered(rt::TaskGraph& g,
                                    const SymbolicFactor& sym,
                                    const SolveSchedule& sched, index_t w0,
                                    const detail::FactorDag& dag) {
  std::vector<rt::tag_t> root_deps;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    if (sym.sn_parent[s] == kNone) {
      root_deps.insert(root_deps.end(), dag.panel_ready(s).begin(),
                       dag.panel_ready(s).end());
    }
  }
  const rt::tag_t barrier = rt::make_tag(
      rt::TaskKind::kUser, static_cast<std::uint64_t>(sym.n_supernodes) + 2);
  g.add_task(barrier, [] {}, 1.0);
  g.declare_deps(barrier, root_deps);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t p = sym.sn_cols(s);
    const index_t b = sym.sn_below(s);
    const count_t work =
        static_cast<count_t>(w0) *
        (static_cast<count_t>(p) * p + 2 * static_cast<count_t>(p) * b);
    const rt::tag_t tag =
        rt::make_tag(rt::TaskKind::kSolveFwd, static_cast<std::uint64_t>(s));
    g.add_task(tag, [] {},
               static_cast<double>(std::max<count_t>(work, 1)));
    std::vector<rt::tag_t> deps{barrier};
    index_t last_src = kNone;
    for (index_t q = sched.in_ptr[s]; q < sched.in_ptr[s + 1]; ++q) {
      const index_t src = sched.in[q].src;
      if (src == last_src) continue;
      last_src = src;
      deps.push_back(rt::make_tag(rt::TaskKind::kSolveFwd,
                                  static_cast<std::uint64_t>(src)));
    }
    g.declare_deps(tag, deps);
  }
}

bool factors_identical(const CholeskyFactor& a, const CholeskyFactor& b,
                       const SymbolicFactor& sym) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    for (index_t j = 0; j < pa.cols; ++j) {
      if (std::memcmp(&pa.at(0, j), &pb.at(0, j),
                      static_cast<std::size_t>(pa.rows) * sizeof(real_t)) !=
          0) {
        return false;
      }
    }
  }
  if (a.diag().size() != b.diag().size()) return false;
  return std::memcmp(a.diag().data(), b.diag().data(),
                     a.diag().size() * sizeof(real_t)) == 0;
}

struct Failure {
  int count = 0;
  void check(bool ok, const char* what) {
    if (!ok) {
      std::printf("FAIL: %s\n", what);
      ++count;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  Failure fail;
  bench::JsonEmitter json("f10_taskdag");

  bench::heading("F10.1: bitwise identity, serial vs task-DAG engine");
  {
    std::vector<TestProblem> probs;
    if (smoke) {
      probs.push_back({"grid3d-8", "", grid_laplacian_3d(8, 8, 8, 7)});
      probs.push_back({"grid2d-30", "", grid_laplacian_2d(30, 30, 5)});
    } else {
      probs = bench::suite();
    }
    for (const auto& prob : probs) {
      const SymbolicFactor sym = analyze_nested_dissection(prob.lower);
      for (const FactorKind kind :
           {FactorKind::kCholesky, FactorKind::kLdlt}) {
        const CholeskyFactor serial = multifrontal_factor(sym, nullptr, kind);
        bool all_ok = true;
        for (const int threads : {2, 5}) {
          ThreadPool pool(threads);
          const CholeskyFactor par =
              multifrontal_factor_parallel(sym, pool, nullptr, kind);
          all_ok = all_ok && factors_identical(serial, par, sym);
        }
        std::printf("  %-12s %-8s identical=%s\n", prob.name.c_str(),
                    kind == FactorKind::kCholesky ? "chol" : "ldlt",
                    all_ok ? "yes" : "NO");
        fail.check(all_ok, "task-DAG factor differs from serial");
      }
    }
  }

  bench::heading("F10.2: virtual makespan, task-DAG vs static two-phase");
  double best_reduction = 0.0;
  {
    std::vector<TestProblem> probs;
    if (smoke) {
      probs.push_back({"grid3d-12", "", grid_laplacian_3d(12, 12, 12, 7)});
    } else {
      probs = bench::suite();
    }
    std::printf("%-12s %8s %14s %14s %10s %8s %8s\n", "matrix", "T",
                "two-phase", "task-DAG", "reduction", "eff2p", "effdag");
    for (const auto& prob : probs) {
      const SymbolicFactor sym = analyze_nested_dissection(prob.lower);
      for (const int T : {2, 4, 8, 16}) {
        CholeskyFactor f(sym);
        detail::FactorDag dag(sym, f, FactorKind::kCholesky, {}, {},
                              kCoopFrontFlops, T);
        rt::TaskGraph dag_graph;
        dag.emit(dag_graph);
        dag_graph.seal();
        const rt::SimulatedSchedule d = dag_graph.simulate_makespan(T, 1.0);

        rt::TaskGraph tp_graph;
        build_two_phase_graph(tp_graph, sym, kCoopFrontFlops, T);
        tp_graph.seal();
        const rt::SimulatedSchedule t = tp_graph.simulate_makespan(T, 1.0);

        const double reduction = 1.0 - d.makespan / t.makespan;
        best_reduction = std::max(best_reduction, reduction);
        std::printf("%-12s %8d %14.0f %14.0f %9.1f%% %7.1f%% %7.1f%%\n",
                    prob.name.c_str(), T, t.makespan, d.makespan,
                    100.0 * reduction, 100.0 * t.efficiency(T),
                    100.0 * d.efficiency(T));
        json.row()
            .field("section", "factor_makespan")
            .field("matrix", prob.name)
            .field("workers", T)
            .field("two_phase_cost", t.makespan)
            .field("taskdag_cost", d.makespan)
            .field("reduction", reduction)
            .field("efficiency_two_phase", t.efficiency(T))
            .field("efficiency_taskdag", d.efficiency(T));
      }
    }
    std::printf("  best makespan reduction: %.1f%%\n",
                100.0 * best_reduction);
    fail.check(best_reduction >= 0.15,
               "task-DAG never reduced the two-phase makespan by >= 15%");
  }

  bench::heading("F10.3: phase fusion, factor+forward-solve");
  {
    std::vector<TestProblem> probs;
    if (smoke) {
      probs.push_back({"grid3d-12", "", grid_laplacian_3d(12, 12, 12, 7)});
    } else {
      probs = bench::suite();
    }
    std::printf("%-12s %8s %14s %14s %10s\n", "matrix", "T", "split",
                "fused", "reduction");
    for (const auto& prob : probs) {
      const SymbolicFactor sym = analyze_nested_dissection(prob.lower);
      const SolveSchedule sched(sym);
      const index_t w0 = sched.rhs_block;
      for (const int T : {4, 16}) {
        CholeskyFactor f1(sym);
        detail::FactorDag dag1(sym, f1, FactorKind::kCholesky, {}, {},
                               kCoopFrontFlops, T);
        rt::TaskGraph fused;
        dag1.emit(fused);
        append_forward_solve(fused, sym, sched, w0, dag1);
        fused.seal();
        const rt::SimulatedSchedule a = fused.simulate_makespan(T, 1.0);

        CholeskyFactor f2(sym);
        detail::FactorDag dag2(sym, f2, FactorKind::kCholesky, {}, {},
                               kCoopFrontFlops, T);
        rt::TaskGraph split;
        dag2.emit(split);
        append_forward_solve_barriered(split, sym, sched, w0, dag2);
        split.seal();
        const rt::SimulatedSchedule u = split.simulate_makespan(T, 1.0);

        const double reduction = 1.0 - a.makespan / u.makespan;
        std::printf("%-12s %8d %14.0f %14.0f %9.2f%%\n", prob.name.c_str(),
                    T, u.makespan, a.makespan, 100.0 * reduction);
        fail.check(a.makespan <= u.makespan * (1.0 + 1e-9),
                   "fused graph slower than split phases");
        json.row()
            .field("section", "phase_fusion")
            .field("matrix", prob.name)
            .field("workers", T)
            .field("split_cost", u.makespan)
            .field("fused_cost", a.makespan)
            .field("reduction", reduction);
      }
    }
  }

  bench::heading("F10.4: distributed replay, kTaskDag vs kLookahead");
  {
    const mpsim::MachineModel model = bench::calibrated_model();
    const SparseMatrix a = smoke ? grid_laplacian_3d(10, 10, 10, 7)
                                 : grid_laplacian_3d(14, 14, 14, 7);
    const SymbolicFactor sym = analyze_nested_dissection(a);
    constexpr DistConfig look{DistConfig::Schedule::kLookahead,
                              DistConfig::ExtendAddFormat::kPacked};
    constexpr DistConfig dagc{DistConfig::Schedule::kTaskDag,
                              DistConfig::ExtendAddFormat::kPacked};
    std::printf("%6s %14s %14s %10s %10s\n", "P", "lookahead [s]",
                "taskdag [s]", "eff(look)", "eff(dag)");
    for (const int p : {64, 256, 1024}) {
      const FrontMap map =
          build_front_map(sym, p, MappingStrategy::kSubtree2d);
      const PerfResult l = simulate_factor_time(sym, map, model, look);
      const PerfResult t = simulate_factor_time(sym, map, model, dagc);
      std::printf("%6d %14.4f %14.4f %9.1f%% %9.1f%%\n", p, l.makespan,
                  t.makespan, 100.0 * l.efficiency(p),
                  100.0 * t.efficiency(p));
      fail.check(t.makespan <= l.makespan * (1.0 + 1e-9),
                 "kTaskDag replay slower than kLookahead");
      json.row()
          .field("section", "dist_replay")
          .field("ranks", p)
          .field("time_lookahead_s", l.makespan)
          .field("time_taskdag_s", t.makespan)
          .field("efficiency_lookahead", l.efficiency(p))
          .field("efficiency_taskdag", t.efficiency(p));
    }
  }

  bench::heading("F10.5: wall-clock, serial driver vs task-DAG engine");
  if (std::thread::hardware_concurrency() >= 4 && !smoke) {
    const SparseMatrix a = grid_laplacian_3d(20, 20, 20, 7);
    const SymbolicFactor sym = analyze_nested_dissection(a);
    ThreadPool pool(3);  // plus the calling thread: 4 workers
    double t_serial = 1e300;
    double t_dag = 1e300;
    for (int rep = 0; rep < 7; ++rep) {
      {
        WallTimer w;
        const CholeskyFactor f = multifrontal_factor(sym);
        t_serial = std::min(t_serial, w.seconds());
      }
      {
        WallTimer w;
        const CholeskyFactor f = multifrontal_factor_parallel(sym, pool);
        t_dag = std::min(t_dag, w.seconds());
      }
    }
    std::printf("  best of 7: serial %.3fs, task-DAG (4 threads) %.3fs "
                "(speedup %.2fx)\n",
                t_serial, t_dag, t_serial / t_dag);
    json.row()
        .field("section", "wallclock")
        .field("threads", 4)
        .field("serial_s", t_serial)
        .field("taskdag_s", t_dag);
  } else {
    std::printf(
        "  skipped (host has %u hardware threads%s); virtual replay above "
        "is the deterministic evidence\n",
        std::thread::hardware_concurrency(), smoke ? ", smoke mode" : "");
  }

  if (fail.count > 0) {
    std::printf("\n%d FAILURE(S)\n", fail.count);
    return 1;
  }
  std::printf("\nall F10 checks passed\n");
  return 0;
}
