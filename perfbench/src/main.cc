// parfact_bench: runs one benchmark workload in this process and prints its
// result as the last line of standard output.
//
//   parfact_bench --workload cold_solve|refactor_stream|service_mix
//                 --seed N --seconds S --trace 0|1
//                 [--out DIR] [--git-sha SHA] [--mini] [--corrupt-every K]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// runs its timed closed loop and reports the end-to-end metrics. --trace 1
// replays the same seeded inputs through each layer's public functions
// and reports the per-layer metrics (see traced.h). A line with the host
// block precedes the result. --mini shrinks every input for the self-check;
// --corrupt-every K damages every K-th answer before verification, which
// must then report it failed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dense/kernels.h"
#include "host.h"
#include "inputs.h"
#include "traced.h"
#include "workloads.h"

namespace {

using perfbench::Config;
using perfbench::Metric;

constexpr int kSetupRuns = 3;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "parfact_bench: %s\n", msg);
  std::exit(2);
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("metric is not finite");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.out_dir = ".bench_build/out";
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value().c_str());
      have_seconds = true;
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--out") {
      config.out_dir = value();
    } else if (arg == "--git-sha") {
      git_sha = value();
    } else if (arg == "--mini") {
      config.mini = true;
    } else if (arg == "--corrupt-every") {
      config.corrupt_every = std::atoi(value().c_str());
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.workload.empty() || !have_seed || !have_seconds ||
      (trace != 0 && trace != 1) || !(config.seconds > 0.0)) {
    usage("need --workload, --seed, --seconds > 0 and --trace 0|1");
  }
  config.nproc = perfbench::host_nproc();

  try {
    std::filesystem::create_directories(config.out_dir);
    std::string host = "{\"host\": {\"nproc\": " +
                       std::to_string(config.nproc) + ", \"compiler\": " +
                       json_string(perfbench::compiler_version()) +
                       ", \"git_sha\": " + json_string(git_sha);
    if (trace == 1) {
      const double gemm = parfact::measure_gemm_rate(192) / 1e9;
      const perfbench::TracedResult r = perfbench::run_traced(config, gemm);
      std::printf("%s, \"gemm_gflops\": %s}, \"workload\": %s, "
                  "\"seed\": %llu}\n",
                  host.c_str(), json_number(gemm).c_str(),
                  json_string(config.workload).c_str(),
                  static_cast<unsigned long long>(config.seed));
      print_result(r.attempted, r.failed, r.metrics);
      return 0;
    }

    // Each set-up runs from scratch in a fresh workload object; the last
    // one serves the timed phase. The previous object is destroyed first,
    // so only one copy of the inputs is ever resident.
    std::vector<double> setup_s;
    std::unique_ptr<perfbench::Workload> workload;
    for (int k = 0; k < kSetupRuns; ++k) {
      workload.reset();
      const auto t0 = std::chrono::steady_clock::now();
      workload = perfbench::make_workload(config);
      workload->setup();
      setup_s.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    const perfbench::TimedResult r = workload->run();
    const double rss = perfbench::peak_rss_mb();
    workload.reset();
    if (r.attempted < 1) throw std::runtime_error("no request completed");
    const double gemm = parfact::measure_gemm_rate(192) / 1e9;

    const auto n = static_cast<double>(r.attempted);
    std::vector<Metric> metrics = {
        {"setup_s", percentile(setup_s, 0.5), "s"},
        {"rps", n / r.wall_s, "req/s"},
        {"p50_ms", percentile(r.latency_ms, 0.5), "ms"},
        {"p90_ms", percentile(r.latency_ms, 0.9), "ms"},
        {"cpu_ms_per_req", 1e3 * r.cpu_s / n, "ms"},
        {"peak_rss_mb", rss, "MB"},
    };
    std::string info;
    for (const auto& [k, v] : r.info) {
      info += ", " + json_string(k) + ": " + json_number(v);
    }
    std::string setups;
    for (const double s : setup_s) {
      setups += (setups.empty() ? "" : ", ") + json_number(s);
    }
    std::printf(
        "%s, \"gemm_gflops\": %s, \"steal_frac\": %s}, \"workload\": %s, "
        "\"seed\": %llu, \"wall_s\": %s, \"cpu_s\": %s, "
        "\"setup_runs_s\": [%s], \"p90_valid\": %s, "
        "\"info\": {\"latency_samples\": %zu%s}}\n",
        host.c_str(), json_number(gemm).c_str(), json_number(r.steal).c_str(),
        json_string(config.workload).c_str(),
        static_cast<unsigned long long>(config.seed),
        json_number(r.wall_s).c_str(), json_number(r.cpu_s).c_str(),
        setups.c_str(), r.attempted >= 100 ? "true" : "false",
        r.latency_ms.size(), info.c_str());
    print_result(r.attempted, r.failed, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parfact_bench: %s\n", e.what());
    return 1;
  }
}
