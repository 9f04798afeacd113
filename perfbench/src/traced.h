// The traced run: replays a workload's seeded inputs through each layer's
// public functions with one span per call, and derives the per-layer
// metrics from those spans. End-to-end numbers never come from here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedResult {
  std::int64_t attempted = 0;  ///< replayed requests, each verified
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs replay passes until config.seconds have elapsed (at least one),
/// writes the Chrome trace and the per-layer summary into config.out_dir.
TracedResult run_traced(const Config& config, double gemm_gflops);

}  // namespace perfbench
