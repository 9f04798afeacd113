// F12 — Symbolic-reuse serving engine. Three panels:
//
//  (a) Refactorize fast path: cold pipeline (analyze + factorize) versus
//      numeric-only refactorize() on every suite matrix. The warm path
//      skips ordering, symbolic analysis, and factor allocation, so its
//      advantage is the analyze share of the pipeline — typically 3–30x
//      depending on how structure-bound the matrix is. Every warm factor
//      is verified bitwise identical to a cold factorization of the same
//      values before a speedup is reported.
//
//  (b) Symbolic cache: time-to-first-factor for a fresh Solver with a cold
//      shared cache versus a warm one (the second session with the same
//      sparsity pattern). The hit skips the same analyze work without the
//      caller restructuring anything.
//
//  (c) SolverService under a serving mix: many sessions over the suite
//      patterns, several client threads issuing a heavy-tailed request
//      stream (~90% solve / 8% refactorize / 2% cold factorize) against a
//      factor cache sized to force LRU spills. Reports p50/p99 latency and
//      request throughput per class.
//
// `--smoke` shrinks the run and pins the acceptance gates: warm
// refactorize >= 3x the cold pipeline (best-of-N, bitwise-verified) on
// every suite matrix, and the service mix completes with zero failed
// requests while evictions actually occur; nonzero exit on failure.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/solver.h"
#include "bench/common.h"
#include "sparse/gen.h"
#include "support/prng.h"
#include "symbolic/working_set.h"

using namespace parfact;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

bool factors_bitwise_equal(const SymbolicFactor& sym, const CholeskyFactor& a,
                           const CholeskyFactor& b) {
  if (a.is_ldlt() != b.is_ldlt()) return false;
  if (a.is_ldlt()) {
    const auto da = a.diag();
    const auto db = b.diag();
    if (da.size() != db.size() ||
        std::memcmp(da.data(), db.data(), da.size() * sizeof(real_t)) != 0) {
      return false;
    }
  }
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    if (std::memcmp(pa.data, pb.data,
                    static_cast<std::size_t>(pa.rows) * pa.cols *
                        sizeof(real_t)) != 0) {
      return false;
    }
  }
  return true;
}

SparseMatrix scaled_values(const SparseMatrix& a, real_t scale) {
  SparseMatrix out = a;
  for (real_t& v : out.values) v *= scale;
  return out;
}

double percentile(std::vector<double>& sorted_in_place, double p) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_in_place.size() - 1));
  return sorted_in_place[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::heading("F12: symbolic-reuse serving engine");
  bench::JsonEmitter json("f12_serving");
  int failures = 0;
  const auto problems = bench::suite(smoke ? 0.5 : -1.0);
  const int reps = smoke ? 3 : 5;
  const int threads = 4;

  // --- (a) Refactorize fast path vs cold pipeline. ---
  std::printf("\n## refactorize fast path (threads=%d, best of %d)\n", threads,
              reps);
  std::printf("%-12s %12s %12s %12s %9s %9s\n", "matrix", "analyze [s]",
              "cold [s]", "refac [s]", "speedup", "bitwise");
  for (const auto& p : problems) {
    const SparseMatrix a2 = scaled_values(p.lower, 1.5);
    SolverOptions opt;
    opt.threads = threads;

    Solver warm(opt);
    // Cold pipeline = what a caller without refactorize() pays per new set
    // of values: full analyze + factorize.
    const double t_cold = best_of(reps, [&] {
      warm.analyze(p.lower);
      if (warm.factorize().failed()) ++failures;
    });
    const double t_analyze = warm.report().analyze_seconds;
    const double t_refac =
        best_of(reps, [&] {
          if (warm.refactorize(a2.values).failed()) ++failures;
        });

    Solver cold(opt);
    cold.analyze(a2);
    if (cold.factorize().failed()) ++failures;
    const bool bitwise =
        factors_bitwise_equal(cold.symbolic(), cold.factor(), warm.factor());
    if (!bitwise) {
      std::printf("# FAIL: %s refactorize != cold factorize\n",
                  p.name.c_str());
      ++failures;
    }
    const double speedup = t_cold / t_refac;
    if (smoke && speedup < 3.0) {
      std::printf("# FAIL: %s refactorize speedup %.2fx < 3x gate\n",
                  p.name.c_str(), speedup);
      ++failures;
    }
    std::printf("%-12s %12.5f %12.5f %12.5f %8.2fx %9s\n", p.name.c_str(),
                t_analyze, t_cold, t_refac, speedup, bitwise ? "yes" : "NO");
    json.row()
        .field("panel", "refactorize")
        .field("matrix", p.name)
        .field("cold_seconds", t_cold)
        .field("refactorize_seconds", t_refac)
        .field("speedup", speedup)
        .field("bitwise", bitwise ? 1 : 0);
  }

  // --- (b) Symbolic cache: second session with the same pattern. ---
  std::printf("\n## shared symbolic cache (time to first factor)\n");
  std::printf("%-12s %12s %12s %9s\n", "matrix", "miss [s]", "hit [s]",
              "speedup");
  for (const auto& p : problems) {
    SymbolicCache cache(64);
    SolverOptions opt;
    opt.threads = threads;
    opt.symbolic_cache = &cache;
    const auto first_factor = [&] {
      Solver s(opt);
      s.analyze(p.lower);
      if (s.factorize().failed()) ++failures;
    };
    const double t_miss_once = [&] {
      const double t0 = now_seconds();
      first_factor();
      return now_seconds() - t0;
    }();
    const double t_hit = best_of(reps, first_factor);
    std::printf("%-12s %12.5f %12.5f %8.2fx\n", p.name.c_str(), t_miss_once,
                t_hit, t_miss_once / t_hit);
    json.row()
        .field("panel", "symbolic_cache")
        .field("matrix", p.name)
        .field("miss_seconds", t_miss_once)
        .field("hit_seconds", t_hit);
  }

  // --- (c) SolverService under a serving mix. ---
  const int n_clients = smoke ? 3 : 6;
  const int requests_per_client = smoke ? 60 : 400;
  std::printf(
      "\n## service mix: %d clients x %d requests "
      "(~90%% solve / 8%% refactorize / 2%% cold factorize)\n",
      n_clients, requests_per_client);

  // Size the factor cache to roughly half the suite's resident footprint so
  // LRU spill/reload is on the critical path of the mix.
  std::size_t total_factor_bytes = 0;
  {
    for (const auto& p : problems) {
      Solver probe;
      probe.analyze(p.lower);
      total_factor_bytes +=
          estimate_working_set(probe.symbolic(), false).factor_bytes;
    }
  }
  ServiceOptions sopt;
  sopt.solver.threads = 2;
  sopt.factor_cache_bytes = total_factor_bytes / 2 + 1;
  sopt.max_concurrent_jobs = n_clients;
  SolverService svc(sopt);

  std::vector<SessionId> ids;
  std::vector<const SparseMatrix*> mats;
  for (const auto& p : problems) {
    SessionId id = 0;
    if (svc.open(p.lower, id).failed() || svc.factorize(id).failed()) {
      std::printf("# FAIL: could not open/factorize session for %s\n",
                  p.name.c_str());
      ++failures;
      continue;
    }
    ids.push_back(id);
    mats.push_back(&p.lower);
  }

  std::atomic<int> bad{0};
  std::mutex lat_mu;
  std::vector<double> lat_solve, lat_refac, lat_cold;
  const double t_mix0 = now_seconds();
  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  for (int c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      Prng rng(1000 + static_cast<std::uint64_t>(c));
      std::vector<double> my_solve, my_refac, my_cold;
      for (int r = 0; r < requests_per_client; ++r) {
        const auto pick =
            static_cast<std::size_t>(rng.next_index(
                static_cast<index_t>(ids.size())));
        const SessionId id = ids[pick];
        const SparseMatrix& m = *mats[pick];
        const double roll = rng.next_real(0.0, 1.0);
        const double t0 = now_seconds();
        Status st = Status::success();
        if (roll < 0.90) {
          std::vector<real_t> b(static_cast<std::size_t>(m.rows), 1.0);
          std::vector<real_t> x;
          st = svc.solve(id, b, x);
          my_solve.push_back(now_seconds() - t0);
        } else if (roll < 0.98) {
          st = svc.refactorize(id, m.values);
          my_refac.push_back(now_seconds() - t0);
        } else {
          st = svc.factorize(id);
          my_cold.push_back(now_seconds() - t0);
        }
        if (st.failed()) {
          if (bad.fetch_add(1) < 5) {
            std::printf("# request failure: %s\n", st.to_string().c_str());
          }
        }
      }
      const std::scoped_lock lock(lat_mu);
      lat_solve.insert(lat_solve.end(), my_solve.begin(), my_solve.end());
      lat_refac.insert(lat_refac.end(), my_refac.begin(), my_refac.end());
      lat_cold.insert(lat_cold.end(), my_cold.begin(), my_cold.end());
    });
  }
  for (auto& t : clients) t.join();
  const double mix_seconds = now_seconds() - t_mix0;
  const ServiceStats stats = svc.stats();

  const double total_requests =
      static_cast<double>(n_clients) * requests_per_client;
  std::printf("%-12s %8s %12s %12s\n", "class", "count", "p50 [ms]",
              "p99 [ms]");
  const auto report_class = [&](const char* name, std::vector<double>& lat) {
    const double p50 = percentile(lat, 0.50) * 1e3;
    const double p99 = percentile(lat, 0.99) * 1e3;
    std::printf("%-12s %8zu %12.3f %12.3f\n", name, lat.size(), p50, p99);
    json.row()
        .field("panel", "service_mix")
        .field("class", name)
        .field("count", static_cast<long long>(lat.size()))
        .field("p50_ms", p50)
        .field("p99_ms", p99);
  };
  report_class("solve", lat_solve);
  report_class("refactorize", lat_refac);
  report_class("factorize", lat_cold);
  std::printf(
      "throughput = %.1f req/s over %.2f s; evictions=%lld "
      "(spill bytes written=%s, kept files reused=%lld), "
      "cache hits=%lld/%lld, resident factors=%s of %s\n",
      total_requests / mix_seconds, mix_seconds,
      static_cast<long long>(stats.sessions_evicted),
      bench::fmt_bytes(static_cast<double>(stats.spill_bytes_written)).c_str(),
      static_cast<long long>(stats.spills_reused),
      static_cast<long long>(stats.symbolic_cache_hits),
      static_cast<long long>(stats.symbolic_cache_hits +
                             stats.symbolic_cache_misses),
      bench::fmt_bytes(static_cast<double>(stats.factor_cache_bytes)).c_str(),
      bench::fmt_bytes(static_cast<double>(sopt.factor_cache_bytes)).c_str());
  json.row()
      .field("panel", "service_mix_summary")
      .field("req_per_sec", total_requests / mix_seconds)
      .field("sessions_evicted", static_cast<long long>(stats.sessions_evicted))
      .field("spill_bytes_written",
             static_cast<long long>(stats.spill_bytes_written))
      .field("spills_reused", static_cast<long long>(stats.spills_reused))
      .field("factor_cache_bytes",
             static_cast<long long>(stats.factor_cache_bytes));

  if (bad.load() != 0) {
    std::printf("# FAIL: %d requests returned a failure status\n", bad.load());
    ++failures;
  }
  if (smoke && stats.sessions_evicted == 0) {
    std::printf("# FAIL: mix never evicted — cache pressure gate missed\n");
    ++failures;
  }
  // Every session must still produce the exact reference answer after the
  // storm (spilled or resident — same bits either way).
  for (std::size_t i = 0; i < ids.size(); ++i) {
    SolverOptions ropt;
    ropt.threads = sopt.solver.threads;
    Solver ref(ropt);
    ref.analyze(*mats[i]);
    if (ref.factorize().failed()) ++failures;
    std::vector<real_t> b(static_cast<std::size_t>(mats[i]->rows), 1.0);
    std::vector<real_t> x;
    const Status st = svc.solve(ids[i], b, x);
    if (st.failed()) {
      std::printf("# FAIL: post-mix solve on session %lld: %s\n",
                  static_cast<long long>(ids[i]), st.to_string().c_str());
      ++failures;
    } else if (x != ref.solve(b)) {
      std::printf("# FAIL: post-mix solve mismatch on session %lld\n",
                  static_cast<long long>(ids[i]));
      ++failures;
    }
  }

  if (failures != 0) {
    std::printf("\nF12 FAILED: %d gate(s)\n", failures);
    return 1;
  }
  std::printf("\nF12 OK\n");
  return 0;
}
