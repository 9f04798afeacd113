#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "api/service.h"
#include "api/solver.h"
#include "host.h"
#include "solve/solve.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using parfact::ServiceOptions;
using parfact::ServiceStats;
using parfact::SessionId;
using parfact::Solver;
using parfact::SolverOptions;
using parfact::SolverService;
using parfact::Status;
using parfact::SymbolicCache;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Samples the process and host counters around a timed phase.
class PhaseMeter {
 public:
  PhaseMeter() : cpu_(process_cpu_seconds()), jiffies_(read_cpu_jiffies()) {}
  void finish(TimedResult& r, Clock::time_point start, Clock::time_point end) {
    r.cpu_s = process_cpu_seconds() - cpu_;
    r.steal = steal_fraction(jiffies_, read_cpu_jiffies());
    r.wall_s = std::chrono::duration<double>(end - start).count();
  }

 private:
  double cpu_;
  CpuJiffies jiffies_;
};

bool bitwise_equal(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

// ---------------------------------------------------------------------------
// cold_solve: one client, a fresh threads=1 Solver per request, every
// request a pattern no earlier request had.

class ColdSolve final : public Workload {
 public:
  explicit ColdSolve(const Config& c) : config_(c), corrupt_(c.corrupt_every) {}

  void setup() override {
    Prng rng = stream(config_.seed, 1);
    const std::vector<SparseMatrix> bases = cold_bases(config_.mini);
    // The pool is sized by the run length alone (25 requests/s, 2.5x the
    // rate of a 4-vCPU Xeon VM), so the inputs - and the memory they take -
    // do not depend on how fast the solver is. A solver that drains the
    // pool ends the timed phase early; rps stays completed / wall.
    const auto n = static_cast<std::size_t>(
        3 * std::ceil(config_.seconds * 25.0 / 3.0) + kWarmup);
    requests_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      requests_.push_back(make_cold_request(bases, i, rng));
    }
    for (std::size_t i = 0; i < kWarmup; ++i) (void)serve(requests_[i]);
    next_ = kWarmup;
  }

  TimedResult run() override {
    TimedResult r;
    PhaseMeter meter;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(config_.seconds));
    Clock::time_point end = start;
    while (next_ < requests_.size() && Clock::now() < deadline) {
      const ColdRequest& req = requests_[next_++];
      const Clock::time_point t0 = Clock::now();
      Answer ans = serve(req);
      end = Clock::now();
      r.latency_ms.push_back(ms_between(t0, end));
      ++r.attempted;
      corrupt_.maybe_corrupt(ans.x);
      if (!ans.ok || !residual_ok(req.a, ans.x, req.b)) ++r.failed;
    }
    meter.finish(r, start, end);
    r.info.emplace_back("inputs_left",
                        static_cast<double>(requests_.size() - next_));
    return r;
  }

 private:
  static constexpr std::size_t kWarmup = 3;  // one request per base

  struct Answer {
    bool ok = false;
    std::vector<real_t> x;
  };

  static Answer serve(const ColdRequest& req) {
    Answer ans;
    try {
      Solver solver{SolverOptions{}};
      solver.analyze(req.a);
      const Status st = solver.factorize();
      if (st.ok()) {
        ans.x = solver.solve(req.b);
        ans.ok = true;
      }
    } catch (const std::exception&) {
      ans.ok = false;
    }
    return ans;
  }

  Config config_;
  AnswerCorruptor corrupt_;
  std::vector<ColdRequest> requests_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// refactor_stream: one client, one threads=1 Solver analyzed and factored
// in setup; each request installs a pooled value set through
// refactorize() and solves one right-hand side.

class RefactorStream final : public Workload {
 public:
  explicit RefactorStream(const Config& c)
      : config_(c), corrupt_(c.corrupt_every) {}

  void setup() override {
    Prng rng = stream(config_.seed, 2);
    pool_ = make_value_pool(refactor_base(config_.mini), kRefactorValueSets,
                            kRefactorValueSets, rng);
    schedule_ = make_refactor_schedule(rng);

    SolverOptions opts;
    opts.symbolic_cache = &cache_;
    solver_ = std::make_unique<Solver>(opts);
    solver_->analyze(pool_.pattern);
    if (solver_->factorize().failed()) {
      throw std::runtime_error("refactor_stream: setup factorize failed");
    }
    // Reference answers: a second solver adopts the same analysis and runs
    // a cold factorize() per value set. Refactorize must match it bit for bit.
    {
      Solver reference(opts);
      for (int v = 0; v < kRefactorValueSets; ++v) {
        reference.analyze(with_values(pool_.pattern, pool_.values[v]));
        if (reference.factorize().failed()) {
          throw std::runtime_error(
              "refactor_stream: reference factorize failed");
        }
        expected_.push_back(reference.solve(pool_.rhs[v]));
      }
    }
    for (next_ = 0; next_ < kWarmup; ++next_) (void)serve(schedule_[next_]);
  }

  TimedResult run() override {
    TimedResult r;
    PhaseMeter meter;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(config_.seconds));
    Clock::time_point end = start;
    while (Clock::now() < deadline) {
      const int v = schedule_[next_++ % kRefactorScheduleLength];
      const Clock::time_point t0 = Clock::now();
      std::vector<real_t> x;
      const bool ok = serve(v, &x);
      end = Clock::now();
      r.latency_ms.push_back(ms_between(t0, end));
      ++r.attempted;
      corrupt_.maybe_corrupt(x);
      if (!ok || !bitwise_equal(x, expected_[v])) ++r.failed;
    }
    meter.finish(r, start, end);
    return r;
  }

 private:
  static constexpr std::size_t kWarmup = 4;

  bool serve(int v, std::vector<real_t>* x = nullptr) {
    try {
      if (solver_->refactorize(pool_.values[v]).failed()) return false;
      std::vector<real_t> sol = solver_->solve(pool_.rhs[v]);
      if (x != nullptr) *x = std::move(sol);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  Config config_;
  AnswerCorruptor corrupt_;
  SymbolicCache cache_;
  ValuePool pool_;
  std::vector<int> schedule_;
  std::unique_ptr<Solver> solver_;
  std::vector<std::vector<real_t>> expected_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// service_mix: a SolverService with threads=1 solvers, two concurrent jobs,
// 12 sessions over 4 patterns and a factor cache of 3/4 of their footprint.
// Two clients each own six sessions and issue 90% solves, 10% refactorizes.

class ServiceMix final : public Workload {
 public:
  explicit ServiceMix(const Config& c)
      : config_(c),
        corrupt_(c.corrupt_every),
        spill_dir_(c.out_dir + "/spill") {}

  ~ServiceMix() override {
    service_.reset();
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }
  ServiceMix(const ServiceMix&) = delete;
  ServiceMix& operator=(const ServiceMix&) = delete;

  void setup() override {
    Prng rng = stream(config_.seed, 3);
    for (const SparseMatrix& p : service_patterns(config_.mini)) {
      pools_.push_back(make_value_pool(p, kServiceValueSets, kServiceRhs, rng));
    }
    initial_ = service_initial_values(rng);
    for (int c = 0; c < kServiceClients; ++c) {
      streams_[c] = make_service_stream(c, rng);
    }

    // Reference answers for every (pattern, value set, right-hand side),
    // from a plain Solver with the sessions' options.
    expected_.assign(pools_.size(), {});
    std::vector<std::size_t> factor_bytes(pools_.size());
    {
      SymbolicCache ref_cache;
      SolverOptions ref_opts;
      ref_opts.symbolic_cache = &ref_cache;
      for (std::size_t p = 0; p < pools_.size(); ++p) {
        Solver ref(ref_opts);
        for (int v = 0; v < kServiceValueSets; ++v) {
          ref.analyze(with_values(pools_[p].pattern, pools_[p].values[v]));
          if (ref.factorize().failed()) {
            throw std::runtime_error("service_mix: reference factorize failed");
          }
          factor_bytes[p] = ref.factor_bytes();
          std::vector<std::vector<real_t>> by_rhs;
          for (int b = 0; b < kServiceRhs; ++b) {
            by_rhs.push_back(ref.solve(pools_[p].rhs[b]));
          }
          expected_[p].push_back(std::move(by_rhs));
        }
      }
    }

    std::filesystem::create_directories(spill_dir_);
    service_ = std::make_unique<SolverService>(
        service_options(factor_bytes, spill_dir_));
    ids_.assign(kServiceSessions, 0);
    current_ = initial_;
    for (int s = 0; s < kServiceSessions; ++s) {
      const ValuePool& pool = pools_[service_pattern_of(s)];
      if (service_->open(with_values(pool.pattern, pool.values[initial_[s]]),
                         ids_[s])
              .failed() ||
          service_->factorize(ids_[s]).failed()) {
        throw std::runtime_error("service_mix: session setup failed");
      }
    }
    // Untimed warm-up: the first requests of both streams, run the same
    // way as the timed phase so the factor cache reaches its steady churn.
    std::vector<std::thread> clients;
    for (int c = 0; c < kServiceClients; ++c) {
      clients.emplace_back([this, c] {
        for (std::size_t i = 0; i < kWarmup; ++i) {
          std::vector<real_t> x;
          (void)serve(streams_[c][i], x);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }

  TimedResult run() override {
    struct ClientLog {
      std::vector<double> latency_ms;
      std::int64_t failed = 0;
      Clock::time_point end;
    };
    ClientLog logs[kServiceClients];
    const ServiceStats before = service_->stats();
    PhaseMeter meter;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(config_.seconds));
    std::vector<std::thread> clients;
    for (int c = 0; c < kServiceClients; ++c) {
      clients.emplace_back([&, c] {
        ClientLog& log = logs[c];
        log.end = start;
        for (std::size_t i = kWarmup; Clock::now() < deadline; ++i) {
          const ServiceOp& op = streams_[c][i % kServiceStreamLength];
          std::vector<real_t> x;
          const Clock::time_point t0 = Clock::now();
          bool ok = serve(op, x);
          log.end = Clock::now();
          log.latency_ms.push_back(ms_between(t0, log.end));
          if (!op.refactor) {
            corrupt_.maybe_corrupt(x);
            const int p = service_pattern_of(op.session);
            ok = ok && bitwise_equal(
                           x, expected_[p][current_[op.session]][op.index]);
          }
          if (!ok) ++log.failed;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    TimedResult r;
    Clock::time_point end = start;
    for (const ClientLog& log : logs) {
      r.latency_ms.insert(r.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
      r.failed += log.failed;
      end = std::max(end, log.end);
    }
    r.attempted = static_cast<std::int64_t>(r.latency_ms.size());
    meter.finish(r, start, end);
    const ServiceStats after = service_->stats();
    r.info.emplace_back("evictions",
                        static_cast<double>(after.sessions_evicted -
                                            before.sessions_evicted));
    r.info.emplace_back(
        "refactorizes",
        static_cast<double>(after.refactorizes - before.refactorizes));
    r.info.emplace_back("cache_hits",
                        static_cast<double>(after.symbolic_cache_hits));
    r.info.emplace_back("cache_misses",
                        static_cast<double>(after.symbolic_cache_misses));
    return r;
  }

 private:
  static constexpr std::size_t kWarmup = 24;

  /// Issues one operation; a refactorize updates the session's value set
  /// (only its owning client touches that entry).
  bool serve(const ServiceOp& op, std::vector<real_t>& x) {
    const int p = service_pattern_of(op.session);
    try {
      if (op.refactor) {
        if (service_->refactorize(ids_[op.session], pools_[p].values[op.index])
                .failed()) {
          return false;
        }
        current_[op.session] = op.index;
        return true;
      }
      return service_->solve(ids_[op.session], pools_[p].rhs[op.index], x).ok();
    } catch (const std::exception&) {
      return false;
    }
  }

  Config config_;
  AnswerCorruptor corrupt_;
  std::string spill_dir_;
  std::vector<ValuePool> pools_;
  std::vector<int> initial_;
  std::vector<int> current_;
  std::vector<ServiceOp> streams_[kServiceClients];
  std::vector<std::vector<std::vector<std::vector<real_t>>>> expected_;
  std::unique_ptr<SolverService> service_;
  std::vector<SessionId> ids_;
};

}  // namespace

void AnswerCorruptor::maybe_corrupt(std::vector<real_t>& x) {
  if (every_ <= 0 || x.empty()) return;
  if ((seen_.fetch_add(1) + 1) % every_ != 0) return;
  // Flip the lowest exponent bit of the largest entry: the value halves or
  // doubles, which both the bitwise and the residual checks must catch.
  auto it = std::max_element(x.begin(), x.end(), [](real_t a, real_t b) {
    return std::abs(a) < std::abs(b);
  });
  std::uint64_t bits = 0;
  std::memcpy(&bits, &*it, sizeof bits);
  bits ^= std::uint64_t{1} << 52;
  std::memcpy(&*it, &bits, sizeof bits);
}

ServiceOptions service_options(
    const std::vector<std::size_t>& pattern_factor_bytes,
    const std::string& spill_dir) {
  ServiceOptions so;
  so.solver.threads = 1;
  so.max_concurrent_jobs = 2;
  so.spill_dir = spill_dir;
  std::size_t footprint = 0;
  for (int s = 0; s < kServiceSessions; ++s) {
    footprint += pattern_factor_bytes[service_pattern_of(s)];
  }
  // With half the footprint resident, p50 fell between the resident-solve
  // and the reload latency modes and swung by a quarter between runs; at
  // 3/4 it is a resident solve and p90 a reload (perfbench/README.md).
  so.factor_cache_bytes = footprint * 3 / 4;
  return so;
}

bool residual_ok(const SparseMatrix& lower, const std::vector<real_t>& x,
                 const std::vector<real_t>& b) {
  if (x.size() != b.size()) return false;
  const real_t r = parfact::relative_residual(lower, x, b);
  return r <= kResidualLimit;  // false for NaN as well
}

std::unique_ptr<Workload> make_workload(const Config& config) {
  if (config.workload == "cold_solve") {
    return std::make_unique<ColdSolve>(config);
  }
  if (config.workload == "refactor_stream") {
    return std::make_unique<RefactorStream>(config);
  }
  if (config.workload == "service_mix") {
    return std::make_unique<ServiceMix>(config);
  }
  throw std::invalid_argument("unknown workload: " + config.workload);
}

}  // namespace perfbench
