#include "traced.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "api/service.h"
#include "api/solver.h"
#include "dense/kernels.h"
#include "graph/graph.h"
#include "graph/ordering.h"
#include "host.h"
#include "mf/factor.h"
#include "mf/multifrontal.h"
#include "solve/solve.h"
#include "solve/solve_schedule.h"
#include "sparse/ops.h"
#include "support/thread_pool.h"
#include "symbolic/pattern_key.h"
#include "symbolic/symbolic_factor.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using parfact::CholeskyFactor;
using parfact::ConstMatrixView;
using parfact::count_t;
using parfact::FactorKind;
using parfact::FactorStats;
using parfact::MatrixView;
using parfact::PivotPolicy;
using parfact::ServiceOptions;
using parfact::ServiceStats;
using parfact::SessionId;
using parfact::Solver;
using parfact::SolverOptions;
using parfact::SolverService;
using parfact::SolveSchedule;
using parfact::SolveWorkspace;
using parfact::SymbolicCache;
using parfact::SymbolicFactor;
using parfact::ThreadPool;

constexpr std::int64_t kProbe = -1;  // request id of layer probes

// Requests replayed per pass (each twice: traced and untraced).
constexpr std::size_t kRefactorReplay = 8;
constexpr std::size_t kServiceReplay = 40;

// The solver's default pivot policy: static pivoting, threshold resolved
// from the matrix by the engine.
constexpr PivotPolicy kPivot{.boost = true};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double mean(double sum, double count) { return count > 0 ? sum / count : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// One matrix taken through the layers by the benchmark itself: the calls
/// Solver::analyze, factorize and solve make, each wrapped in a span.
struct Subject {
  SparseMatrix lower;
  std::vector<real_t> rhs;
  SymbolicFactor sym;
  std::vector<index_t> perm;       ///< postordered index -> original index
  std::vector<index_t> value_map;  ///< sym.a.values[q] = lower.values[map[q]]
  std::unique_ptr<CholeskyFactor> factor;  ///< points at `sym`
  std::unique_ptr<SolveSchedule> schedule;
  SolveWorkspace workspace;
  double children_ms = 0.0;  ///< pipeline + pattern_key, for api overhead
};

/// Scatter map from `lower`'s value array into the postordered sym.a: the
/// pure permutation Solver uses to install refactorize() values.
std::vector<index_t> value_map_of(const Subject& s) {
  const SparseMatrix& a = s.sym.a;
  const SparseMatrix& lower = s.lower;
  std::vector<index_t> map(a.values.size());
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
      const index_t oi = s.perm[a.row_ind[q]];
      const index_t oj = s.perm[j];
      const index_t c = std::min(oi, oj);
      const index_t r = std::max(oi, oj);
      const auto begin = lower.row_ind.begin() + lower.col_ptr[c];
      const auto end = lower.row_ind.begin() + lower.col_ptr[c + 1];
      const auto it = std::lower_bound(begin, end, r);
      if (it == end || *it != r) {
        throw std::logic_error("value map: entry missing");
      }
      map[q] = static_cast<index_t>(it - lower.row_ind.begin());
    }
  }
  return map;
}

class TracedRun {
 public:
  TracedRun(const Config& config, double gemm_gflops)
      : config_(config),
        gemm_gflops_(gemm_gflops),
        pool_(std::max(1, config.nproc - 1)),
        spill_dir_(config.out_dir + "/spill_traced") {
    std::filesystem::create_directories(spill_dir_);
  }
  ~TracedRun() {
    service_.reset();
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  TracedResult run();

 private:
  // Workload set-up and request replays.
  void setup();
  void replay(bool traced);
  void replay_cold(bool traced);
  void replay_refactor();
  void replay_service(bool traced);

  // Layer calls shared by replays and probes.
  void pipeline(Subject& s, std::int64_t req);
  void factor(Subject& s, std::int64_t req);
  std::vector<real_t> solve(Subject& s, const std::vector<real_t>& b,
                            std::int64_t req);
  void check(const SparseMatrix& a, std::vector<real_t>& x,
             const std::vector<real_t>& b, std::int64_t req);
  void refactor(Subject& s, bool parallel, std::int64_t req);

  // Per-pass probes of the layers a workload's requests do not isolate.
  void probes();
  void probe_api(Subject& s);
  void probe_dense(index_t m);
  void probe_service();

  [[nodiscard]] std::vector<Metric> metrics() const;
  void write_summary(const std::string& path) const;

  Config config_;
  double gemm_gflops_;
  /// The runtime probe's pool: with the calling thread, nproc threads. Every
  /// timed workload runs threads=1 solvers, so this is the only place the
  /// task-DAG engine runs in parallel.
  ThreadPool pool_;
  std::string spill_dir_;
  Tracer tracer_;
  std::int64_t next_request_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  int passes_ = 0;
  AnswerCorruptor corrupt_{config_.corrupt_every};

  std::vector<std::unique_ptr<Subject>> subjects_;

  // cold_solve
  std::vector<ColdRequest> cold_;
  // refactor_stream
  ValuePool refactor_pool_;
  std::vector<int> refactor_schedule_;
  std::size_t refactor_cursor_ = 0;
  // service_mix
  std::vector<ValuePool> service_pools_;
  std::vector<ServiceOp> streams_[kServiceClients];
  std::size_t stream_cursor_ = 0;
  std::unique_ptr<SolverService> service_;
  std::vector<SessionId> ids_;
  std::vector<int> current_;

  // Accumulators the spans alone do not give.
  double traced_ms_ = 0.0;
  double untraced_ms_ = 0.0;
  double engine_refactor_flops_ = 0.0;
  double engine_refactor_ms_ = 0.0;
  double serial_refactor_ms_ = 0.0;
  double parallel_refactor_ms_ = 0.0;
  double parallel_cpu_s_ = 0.0;
  double parallel_capacity_s_ = 0.0;
  double solve_bytes_ = 0.0;
  double solve_ms_ = 0.0;
  double peak_update_mb_ = 0.0;
  double spilled_mb_ = 0.0;
  std::int64_t spills_ = 0;
  std::vector<double> analyze_overhead_ms_;
  double dense_flops_[3] = {0, 0, 0};
  double dense_ms_[3] = {0, 0, 0};
  std::int64_t service_requests_ = 0;
  std::int64_t service_evictions_ = 0;
  double cache_hit_ratio_ = 0.0;
  count_t nnz_factor_ = 0;
  count_t factor_flops_ = 0;
  count_t supernodes_ = 0;
};

void TracedRun::pipeline(Subject& s, std::int64_t req) {
  parfact::Graph g;
  std::vector<index_t> fill;
  SparseMatrix full;
  SparseMatrix permuted;
  SparseMatrix low;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer_, "graph_from_pattern", "sparse", req);
    g = parfact::graph_from_pattern(s.lower);
  }
  {
    ScopedSpan span(tracer_, "nested_dissection", "graph", req);
    fill = parfact::nested_dissection(g, parfact::OrderingOptions{});
  }
  {
    ScopedSpan span(tracer_, "symmetrize_full", "sparse", req);
    full = parfact::symmetrize_full(s.lower);
  }
  {
    ScopedSpan span(tracer_, "permute_symmetric", "sparse", req);
    permuted = parfact::permute_symmetric(full, fill);
  }
  {
    ScopedSpan span(tracer_, "lower_triangle", "sparse", req);
    low = parfact::lower_triangle(permuted);
  }
  {
    ScopedSpan span(tracer_, "analyze", "symbolic", req);
    s.sym = parfact::analyze(low, parfact::AmalgamationOptions{});
  }
  s.children_ms = ms_since(t0);
  s.perm.resize(static_cast<std::size_t>(s.lower.rows));
  for (index_t k = 0; k < s.lower.rows; ++k) s.perm[k] = fill[s.sym.post[k]];
  s.value_map = value_map_of(s);
  s.factor.reset();
  s.schedule.reset();
}

void TracedRun::factor(Subject& s, std::int64_t req) {
  FactorStats stats;
  {
    ScopedSpan span(tracer_, "multifrontal_factor", "mf", req);
    s.factor = std::make_unique<CholeskyFactor>(parfact::multifrontal_factor(
        s.sym, &stats, FactorKind::kCholesky, kPivot));
  }
  {
    ScopedSpan span(tracer_, "SolveSchedule", "solve", req);
    s.schedule = std::make_unique<SolveSchedule>(s.sym);
  }
  peak_update_mb_ = std::max(
      peak_update_mb_, static_cast<double>(stats.peak_update_bytes) / 1e6);
}

std::vector<real_t> TracedRun::solve(Subject& s, const std::vector<real_t>& b,
                                     std::int64_t req) {
  const index_t n = s.lower.rows;
  std::vector<real_t> pb(b.size());
  for (index_t k = 0; k < n; ++k) pb[k] = b[s.perm[k]];
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer_, "solve_in_place", "solve", req);
    parfact::solve_in_place(*s.factor, MatrixView{pb.data(), n, 1, n},
                            *s.schedule, s.workspace);
  }
  if (tracer_.enabled()) {
    solve_ms_ += ms_since(t0);
    // Computed bytes: each factor panel is read once per sweep, twice in
    // all; cache reuse is not modelled.
    solve_bytes_ += 2.0 * static_cast<double>(s.factor->stored_entries()) *
                    sizeof(real_t);
  }
  std::vector<real_t> x(b.size());
  for (index_t k = 0; k < n; ++k) x[s.perm[k]] = pb[k];
  return x;
}

void TracedRun::check(const SparseMatrix& a, std::vector<real_t>& x,
                      const std::vector<real_t>& b, std::int64_t req) {
  corrupt_.maybe_corrupt(x);
  bool ok = false;
  {
    ScopedSpan span(tracer_, "relative_residual", "sparse", req);
    ok = residual_ok(a, x, b);
  }
  ++attempted_;
  if (!ok) ++failed_;
}

void TracedRun::refactor(Subject& s, bool parallel, std::int64_t req) {
  FactorStats stats;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  if (parallel) {
    ScopedSpan span(tracer_, "multifrontal_refactor_parallel", "mf", req);
    parfact::multifrontal_refactor_parallel(
        s.sym, *s.factor, pool_, &stats, FactorKind::kCholesky,
        parfact::kCoopFrontFlops, kPivot);
  } else {
    ScopedSpan span(tracer_, "multifrontal_refactor", "mf", req);
    parfact::multifrontal_refactor(s.sym, *s.factor, &stats,
                                   FactorKind::kCholesky, kPivot);
  }
  const double ms = ms_since(t0);
  if (!tracer_.enabled()) return;
  if (!parallel) {  // the engine a threads=1 Solver runs
    engine_refactor_ms_ += ms;
    engine_refactor_flops_ += static_cast<double>(s.sym.total_flops);
  }
  if (req != kProbe) return;
  if (parallel) {
    parallel_refactor_ms_ += ms;
    parallel_cpu_s_ += process_cpu_seconds() - cpu0;
    // run_graph runs tasks on the pool's workers and the calling thread.
    parallel_capacity_s_ += ms / 1e3 * (pool_.size() + 1);
  } else {
    serial_refactor_ms_ += ms;
  }
}

// ---------------------------------------------------------------------------
// Set-up and replays. Inputs come from the same seeded streams, in the same
// draw order, as the timed workloads.

void TracedRun::setup() {
  const bool mini = config_.mini;
  if (config_.workload == "cold_solve") {
    Prng rng = stream(config_.seed, 1);
    const std::vector<SparseMatrix> bases = cold_bases(mini);
    for (std::size_t i = 0; i < bases.size(); ++i) {
      cold_.push_back(make_cold_request(bases, i, rng));
    }
    subjects_.resize(cold_.size());
  } else if (config_.workload == "refactor_stream") {
    Prng rng = stream(config_.seed, 2);
    refactor_pool_ = make_value_pool(refactor_base(mini), kRefactorValueSets,
                                     kRefactorValueSets, rng);
    refactor_schedule_ = make_refactor_schedule(rng);
    auto s = std::make_unique<Subject>();
    s->lower = refactor_pool_.pattern;
    s->rhs = refactor_pool_.rhs.front();
    subjects_.push_back(std::move(s));
  } else if (config_.workload == "service_mix") {
    Prng rng = stream(config_.seed, 3);
    for (const SparseMatrix& p : service_patterns(mini)) {
      service_pools_.push_back(
          make_value_pool(p, kServiceValueSets, kServiceRhs, rng));
    }
    current_ = service_initial_values(rng);
    for (int c = 0; c < kServiceClients; ++c) {
      streams_[c] = make_service_stream(c, rng);
    }
    // Subjects in set-up too, untraced: their stored entries size the
    // service's factor cache exactly as the timed workload sizes it.
    std::vector<std::size_t> factor_bytes;
    tracer_.set_enabled(false);
    for (const ValuePool& pool : service_pools_) {
      auto s = std::make_unique<Subject>();
      s->lower = pool.pattern;
      s->rhs = pool.rhs.front();
      pipeline(*s, kProbe);
      factor_bytes.push_back(static_cast<std::size_t>(s->sym.nnz_stored) *
                             sizeof(real_t));
      subjects_.push_back(std::move(s));
    }
    tracer_.set_enabled(true);
    service_ = std::make_unique<SolverService>(
        service_options(factor_bytes, spill_dir_));
    ids_.assign(kServiceSessions, 0);
    for (int s = 0; s < kServiceSessions; ++s) {
      const ValuePool& pool = service_pools_[service_pattern_of(s)];
      if (service_->open(with_values(pool.pattern, pool.values[current_[s]]),
                         ids_[s])
              .failed() ||
          service_->factorize(ids_[s]).failed()) {
        throw std::runtime_error("traced service_mix: session setup failed");
      }
    }
    const ServiceStats st = service_->stats();
    cache_hit_ratio_ = mean(static_cast<double>(st.symbolic_cache_hits),
                            static_cast<double>(st.symbolic_cache_hits +
                                                st.symbolic_cache_misses));
  } else {
    throw std::invalid_argument("unknown workload: " + config_.workload);
  }
}

void TracedRun::replay(bool traced) {
  tracer_.set_enabled(traced);
  const Clock::time_point t0 = Clock::now();
  if (config_.workload == "cold_solve") {
    replay_cold(traced);
  } else if (config_.workload == "refactor_stream") {
    replay_refactor();
  } else {
    replay_service(traced);
  }
  (traced ? traced_ms_ : untraced_ms_) += ms_since(t0);
  tracer_.set_enabled(true);
}

void TracedRun::replay_cold(bool traced) {
  for (std::size_t i = 0; i < cold_.size(); ++i) {
    auto s = std::make_unique<Subject>();
    s->lower = cold_[i].a;
    s->rhs = cold_[i].b;
    const std::int64_t id = next_request_++;
    std::vector<real_t> x;
    {
      ScopedSpan root(tracer_, "request", "bench", id);
      pipeline(*s, id);
      factor(*s, id);
      x = solve(*s, s->rhs, id);
    }
    check(s->lower, x, s->rhs, id);
    if (traced) subjects_[i] = std::move(s);
  }
}

void TracedRun::replay_refactor() {
  Subject& s = *subjects_.front();
  SparseMatrix current = s.lower;
  for (std::size_t k = 0; k < kRefactorReplay; ++k) {
    const int v = refactor_schedule_[(refactor_cursor_ + k) %
                                     refactor_schedule_.size()];
    const std::vector<real_t>& values = refactor_pool_.values[v];
    const std::int64_t id = next_request_++;
    std::vector<real_t> x;
    {
      ScopedSpan root(tracer_, "request", "bench", id);
      for (std::size_t q = 0; q < s.value_map.size(); ++q) {
        s.sym.a.values[q] = values[s.value_map[q]];
      }
      refactor(s, false, id);
      x = solve(s, refactor_pool_.rhs[v], id);
    }
    current.values = values;
    check(current, x, refactor_pool_.rhs[v], id);
  }
}

void TracedRun::replay_service(bool traced) {
  const ServiceStats before = service_->stats();
  for (std::size_t k = 0; k < kServiceReplay; ++k) {
    const int c = static_cast<int>(k % kServiceClients);
    const ServiceOp& op =
        streams_[c][(stream_cursor_ + k / kServiceClients) %
                    kServiceStreamLength];
    const int p = service_pattern_of(op.session);
    const ValuePool& pool = service_pools_[p];
    const std::int64_t id = next_request_++;
    std::vector<real_t> x;
    bool ok = true;
    {
      ScopedSpan root(tracer_, "request", "bench", id);
      if (op.refactor) {
        ScopedSpan span(tracer_, "SolverService::refactorize", "api", id);
        ok = service_->refactorize(ids_[op.session], pool.values[op.index])
                 .ok();
      } else {
        ScopedSpan span(tracer_, "SolverService::solve", "api", id);
        ok = service_->solve(ids_[op.session], pool.rhs[op.index], x).ok();
      }
    }
    if (op.refactor) {
      if (ok) current_[op.session] = op.index;
      ++attempted_;
      if (!ok) ++failed_;
    } else {
      check(with_values(pool.pattern, pool.values[current_[op.session]]), x,
            pool.rhs[op.index], id);
    }
  }
  if (traced) {
    service_requests_ += static_cast<std::int64_t>(kServiceReplay);
    service_evictions_ +=
        service_->stats().sessions_evicted - before.sessions_evicted;
  }
}

// ---------------------------------------------------------------------------
// Probes: layer calls on the workload's own matrices, once per pass.

void TracedRun::probes() {
  const bool count_structure = passes_ == 0;
  index_t max_front = 1;
  for (std::unique_ptr<Subject>& ptr : subjects_) {
    Subject& s = *ptr;
    if (config_.workload != "cold_solve") {  // cold_solve's replay built them
      pipeline(s, kProbe);
      factor(s, kProbe);
    }
    {
      ScopedSpan span(tracer_, "pattern_key", "symbolic", kProbe);
      const Clock::time_point t0 = Clock::now();
      (void)parfact::pattern_key(s.lower, 0);
      s.children_ms += ms_since(t0);
    }
    std::vector<real_t> x = solve(s, s.rhs, kProbe);
    check(s.lower, x, s.rhs, kProbe);
    refactor(s, false, kProbe);
    refactor(s, true, kProbe);
    probe_api(s);
    for (index_t k = 0; k < s.sym.n_supernodes; ++k) {
      max_front = std::max(max_front, s.sym.front_order(k));
    }
    if (count_structure) {
      nnz_factor_ += s.sym.nnz_strict;
      factor_flops_ += s.sym.total_flops;
      supernodes_ += s.sym.n_supernodes;
    }
  }
  probe_dense(max_front);
  if (config_.workload != "service_mix") probe_service();
}

void TracedRun::probe_api(Subject& s) {
  SymbolicCache cache;
  SolverOptions opts;
  opts.symbolic_cache = &cache;
  opts.spill_path = spill_dir_ + "/api_probe.bin";
  Solver cold(opts);
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer_, "Solver::analyze", "api", kProbe);
    cold.analyze(s.lower);
  }
  analyze_overhead_ms_.push_back(ms_since(t0) - s.children_ms);
  Solver warm(opts);
  {
    ScopedSpan span(tracer_, "Solver::analyze(cache hit)", "api", kProbe);
    warm.analyze(s.lower);
  }
  {
    ScopedSpan span(tracer_, "Solver::factorize", "api", kProbe);
    if (warm.factorize().failed()) {
      throw std::runtime_error("api probe: factorize failed");
    }
  }
  {
    ScopedSpan span(tracer_, "Solver::spill_factor", "mf.ooc", kProbe);
    if (warm.spill_factor().failed()) {
      throw std::runtime_error("api probe: spill failed");
    }
  }
  spilled_mb_ += static_cast<double>(warm.report().bytes_spilled) / 1e6;
  ++spills_;
  {
    ScopedSpan span(tracer_, "Solver::unspill_factor", "mf.ooc", kProbe);
    if (warm.unspill_factor().failed()) {
      throw std::runtime_error("api probe: reload failed");
    }
  }
  std::vector<real_t> x;
  {
    ScopedSpan span(tracer_, "Solver::solve", "api", kProbe);
    x = warm.solve(s.rhs);
  }
  check(s.lower, x, s.rhs, kProbe);
}

void TracedRun::probe_dense(index_t m) {
  // Blocks of the largest front order: a diagonally dominant SPD block for
  // POTRF, its factor for TRSM, and a rank-m update for SYRK.
  Prng rng = stream(config_.seed, 7);
  const std::size_t mm = static_cast<std::size_t>(m) * m;
  std::vector<real_t> spd(mm);
  for (index_t j = 0; j < m; ++j) {
    spd[static_cast<std::size_t>(j) * m + j] = 2.0;
    for (index_t i = j + 1; i < m; ++i) {
      const real_t v = rng.next_real(-1.0, 1.0) / m;
      spd[static_cast<std::size_t>(j) * m + i] = v;
      spd[static_cast<std::size_t>(i) * m + j] = v;
    }
  }
  std::vector<real_t> rect(mm);
  for (real_t& v : rect) v = rng.next_real(-1.0, 1.0);
  std::vector<real_t> l = spd;
  std::vector<real_t> work(mm);
  const double mf = static_cast<double>(m);

  // Runs `prepare` untimed, then `kernel` in a span, until the kernel has
  // run at least twice and for 25 ms (at most 200 times).
  const auto time_kernel = [&](int k, const char* name, double flops,
                               const auto& prepare, const auto& kernel) {
    double ms = 0.0;
    for (int rep = 0; rep < 2 || (ms < 25.0 && rep < 200); ++rep) {
      prepare();
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(tracer_, name, "dense", kProbe);
        kernel();
      }
      ms += ms_since(t0);
      dense_flops_[k] += flops;
    }
    dense_ms_[k] += ms;
  };
  time_kernel(
      0, "potrf_lower", mf * mf * mf / 3.0, [&] { l = spd; },
      [&] {
        if (parfact::potrf_lower(MatrixView{l.data(), m, m, m}) !=
            parfact::kNone) {
          throw std::runtime_error("dense probe: block not SPD");
        }
      });
  time_kernel(
      1, "trsm_right_lower_trans", mf * mf * mf, [&] { work = rect; },
      [&] {
        parfact::trsm_right_lower_trans(ConstMatrixView{l.data(), m, m, m},
                                        MatrixView{work.data(), m, m, m});
      });
  work.assign(mm, 0.0);
  time_kernel(
      2, "syrk_lower_update", mf * (mf + 1.0) * mf, [] {},
      [&] {
        parfact::syrk_lower_update(MatrixView{work.data(), m, m, m},
                                   ConstMatrixView{rect.data(), m, m, m});
      });
}

void TracedRun::probe_service() {
  // Two sessions on the workload's first matrix and room for one resident
  // factor: the second open hits the symbolic cache and every switch of
  // session spills one factor and reloads the other.
  const Subject& s = *subjects_.front();
  ServiceOptions so;
  so.max_concurrent_jobs = 2;
  so.spill_dir = spill_dir_;
  const std::size_t bytes =
      static_cast<std::size_t>(s.sym.nnz_stored) * sizeof(real_t);
  so.factor_cache_bytes = bytes + bytes / 2;
  SolverService service(so);
  SessionId ids[2] = {0, 0};
  for (SessionId& id : ids) {
    ScopedSpan span(tracer_, "SolverService::open+factorize", "api", kProbe);
    if (service.open(s.lower, id).failed() || service.factorize(id).failed()) {
      throw std::runtime_error("service probe: session setup failed");
    }
  }
  const ServiceStats before = service.stats();
  constexpr int kRequests = 8;
  for (int k = 0; k < kRequests; ++k) {
    const SessionId id = ids[k % 2];
    if (k % 4 == 3) {
      ScopedSpan span(tracer_, "SolverService::refactorize", "api", kProbe);
      const bool ok = service.refactorize(id, s.lower.values).ok();
      ++attempted_;
      if (!ok) ++failed_;
      continue;
    }
    std::vector<real_t> x;
    {
      ScopedSpan span(tracer_, "SolverService::solve", "api", kProbe);
      (void)service.solve(id, s.rhs, x);
    }
    check(s.lower, x, s.rhs, kProbe);
  }
  const ServiceStats after = service.stats();
  service_requests_ += kRequests;
  service_evictions_ += after.sessions_evicted - before.sessions_evicted;
  cache_hit_ratio_ = mean(static_cast<double>(after.symbolic_cache_hits),
                          static_cast<double>(after.symbolic_cache_hits +
                                              after.symbolic_cache_misses));
}

// ---------------------------------------------------------------------------

TracedResult TracedRun::run() {
  const CpuJiffies j0 = read_cpu_jiffies();
  setup();
  const Clock::time_point start = Clock::now();
  do {
    // Alternate which copy of the replay runs first, so warm caches favour
    // neither side of the overhead comparison.
    const bool traced_first = passes_ % 2 == 1;
    if (config_.workload == "refactor_stream") probes();
    replay(traced_first);
    replay(!traced_first);
    refactor_cursor_ += kRefactorReplay;
    stream_cursor_ += kServiceReplay / kServiceClients;
    if (config_.workload != "refactor_stream") probes();
    ++passes_;
  } while (ms_since(start) < config_.seconds * 1e3);
  const double steal = steal_fraction(j0, read_cpu_jiffies());

  std::filesystem::create_directories(config_.out_dir);
  const std::string stem = config_.out_dir + "/" + config_.workload + "_seed" +
                           std::to_string(config_.seed);
  tracer_.write_chrome_json(stem + ".trace.json");
  write_summary(stem + ".layers.json");

  TracedResult r;
  r.attempted = attempted_;
  r.failed = failed_;
  r.metrics = metrics();
  r.metrics.push_back(
      {"host.nproc", static_cast<double>(config_.nproc), "count"});
  r.metrics.push_back({"host.gemm_gflops", gemm_gflops_, "Gflop/s"});
  r.metrics.push_back({"host.steal_frac", steal, "fraction"});
  return r;
}

std::vector<Metric> TracedRun::metrics() const {
  const auto names = span_totals(tracer_.spans(), false);
  const auto layers = span_totals(tracer_.spans(), true);
  const auto total = [&](const char* name) {
    const auto it = names.find(name);
    return it == names.end() ? 0.0 : it->second.total_ms;
  };
  const auto count = [&](const char* name) {
    const auto it = names.find(name);
    return it == names.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto per_call = [&](const char* name) {
    return mean(total(name), count(name));
  };
  const auto durations = [&](const char* name) {
    std::vector<double> v;
    for (const Span& s : tracer_.spans()) {
      if (std::string(s.name) == name) v.push_back(s.duration_ms());
    }
    return v;
  };
  const double refactor_gflops =
      mean(engine_refactor_flops_ / 1e6, engine_refactor_ms_);

  std::vector<Metric> m;
  m.push_back({"graph.order_ms", per_call("nested_dissection"), "ms"});
  m.push_back({"sparse.graph_build_ms", per_call("graph_from_pattern"), "ms"});
  m.push_back({"sparse.permute_ms",
               mean(total("symmetrize_full") + total("permute_symmetric") +
                        total("lower_triangle"),
                    count("permute_symmetric")),
               "ms"});
  m.push_back({"sparse.residual_ms", per_call("relative_residual"), "ms"});
  m.push_back({"symbolic.analyze_ms", per_call("analyze"), "ms"});
  m.push_back({"symbolic.pattern_key_ms", per_call("pattern_key"), "ms"});
  m.push_back(
      {"symbolic.nnz_factor", static_cast<double>(nnz_factor_), "count"});
  m.push_back({"symbolic.factor_mflop",
               static_cast<double>(factor_flops_) / 1e6, "Mflop"});
  m.push_back(
      {"symbolic.supernodes", static_cast<double>(supernodes_), "count"});
  m.push_back({"mf.factor_ms", per_call("multifrontal_factor"), "ms"});
  m.push_back({"mf.refactor_ms", per_call("multifrontal_refactor"), "ms"});
  m.push_back({"mf.refactor_gflops", refactor_gflops, "Gflop/s"});
  m.push_back({"mf.refactor_pct_peak",
               100.0 * mean(refactor_gflops, gemm_gflops_), "%"});
  m.push_back({"mf.peak_update_mb", peak_update_mb_, "MB"});
  const char* dense_names[3] = {"dense.potrf_gflops", "dense.trsm_gflops",
                                "dense.syrk_gflops"};
  for (int k = 0; k < 3; ++k) {
    m.push_back({dense_names[k], mean(dense_flops_[k] / 1e6, dense_ms_[k]),
                 "Gflop/s"});
  }
  m.push_back({"runtime.speedup",
               mean(serial_refactor_ms_, parallel_refactor_ms_), "x"});
  m.push_back({"runtime.idle_frac",
               1.0 - mean(parallel_cpu_s_, parallel_capacity_s_), "fraction"});
  m.push_back({"solve.sweep_ms", per_call("solve_in_place"), "ms"});
  m.push_back(
      {"solve.computed_gbps", mean(solve_bytes_ / 1e6, solve_ms_), "GB/s"});
  m.push_back({"mf.ooc.spill_ms", per_call("Solver::spill_factor"), "ms"});
  m.push_back({"mf.ooc.reload_ms", per_call("Solver::unspill_factor"), "ms"});
  m.push_back({"mf.ooc.spill_mb",
               mean(spilled_mb_, static_cast<double>(spills_)), "MB"});
  m.push_back({"api.analyze_overhead_ms", median(analyze_overhead_ms_), "ms"});
  m.push_back({"api.cache_hit_analyze_ms",
               per_call("Solver::analyze(cache hit)"), "ms"});
  m.push_back({"api.service.solve_p50_ms",
               median(durations("SolverService::solve")), "ms"});
  m.push_back({"api.service.refactorize_p50_ms",
               median(durations("SolverService::refactorize")), "ms"});
  m.push_back({"api.service.evictions_per_100req",
               100.0 * mean(static_cast<double>(service_evictions_),
                            static_cast<double>(service_requests_)),
               "count/100req"});
  m.push_back({"api.service.cache_hit_ratio", cache_hit_ratio_, "ratio"});
  for (const char* layer : {"sparse", "graph", "symbolic", "mf", "mf.ooc",
                            "dense", "solve", "api"}) {
    const auto it = layers.find(layer);
    const double self = it == layers.end() ? 0.0 : it->second.self_ms;
    m.push_back({std::string(layer) + ".self_ms", self / passes_, "ms/pass"});
  }
  m.push_back({"trace.overhead_pct",
               100.0 * (mean(traced_ms_, untraced_ms_) - 1.0), "%"});
  return m;
}

void TracedRun::write_summary(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "{\"workload\":\"%s\",\"seed\":%llu,\"passes\":%d,"
               "\"layers\":{",
               config_.workload.c_str(),
               static_cast<unsigned long long>(config_.seed), passes_);
  const auto layers = span_totals(tracer_.spans(), true);
  bool first = true;
  std::fprintf(stderr, "%-40s %-9s %7s %12s %12s\n", "span / layer", "layer",
               "count", "total_ms", "self_ms");
  for (const auto& [name, t] : layers) {
    std::fprintf(f,
                 "%s\"%s\":{\"spans\":%lld,\"self_ms\":%.6f,"
                 "\"self_ms_per_pass\":%.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<long long>(t.count), t.self_ms,
                 t.self_ms / passes_);
    std::fprintf(stderr, "%-40s %-9s %7lld %12.3f %12.3f\n",
                 ("[" + name + "]").c_str(), name.c_str(),
                 static_cast<long long>(t.count), t.total_ms, t.self_ms);
    first = false;
  }
  std::fprintf(f, "},\"spans\":{");
  first = true;
  for (const auto& [name, t] : span_totals(tracer_.spans(), false)) {
    std::fprintf(f,
                 "%s\"%s\":{\"layer\":\"%s\",\"count\":%lld,\"total_ms\":%.6f,"
                 "\"self_ms\":%.6f}",
                 first ? "" : ",", name.c_str(), t.layer.c_str(),
                 static_cast<long long>(t.count), t.total_ms, t.self_ms);
    std::fprintf(stderr, "%-40s %-9s %7lld %12.3f %12.3f\n", name.c_str(),
                 t.layer.c_str(), static_cast<long long>(t.count), t.total_ms,
                 t.self_ms);
    first = false;
  }
  std::fprintf(f, "}}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace

TracedResult run_traced(const Config& config, double gemm_gflops) {
  TracedRun run(config, gemm_gflops);
  return run.run();
}

}  // namespace perfbench
