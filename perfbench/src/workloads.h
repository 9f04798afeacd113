// The three timed closed-loop workloads, driven only through the public
// Solver / SolverService API. Each workload's setup() generates its inputs,
// prepares the served matrices and reference answers, and runs untimed
// warm-up requests; run() then issues requests until the time is up and
// verifies every answer after its latency stamp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"
#include "inputs.h"

namespace perfbench {

struct TimedResult {
  std::vector<double> latency_ms;  ///< one per attempted request
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double wall_s = 0.0;   ///< timed phase, first call to last return
  double cpu_s = 0.0;    ///< process user+sys CPU over the timed phase
  double steal = 0.0;    ///< host steal share over the timed phase
  std::vector<std::pair<std::string, double>> info;  ///< workload counters
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual TimedResult run() = 0;
};

std::unique_ptr<Workload> make_workload(const Config& config);

/// Self-check hook: when enabled, damages every k-th answer after its
/// latency stamp and before verification, which must then count it failed.
class AnswerCorruptor {
 public:
  explicit AnswerCorruptor(int every) : every_(every) {}
  void maybe_corrupt(std::vector<real_t>& x);

 private:
  int every_;
  std::atomic<std::int64_t> seen_{0};
};

/// The service_mix configuration: threads=1 solvers, two concurrent jobs,
/// spill files under `spill_dir`, and a factor cache of 3/4 of the sessions'
/// resident footprint. `pattern_factor_bytes[p]` is one factor of pattern p.
parfact::ServiceOptions service_options(
    const std::vector<std::size_t>& pattern_factor_bytes,
    const std::string& spill_dir);

/// Scaled residual check of the cold_solve and traced-replay answers.
bool residual_ok(const SparseMatrix& lower, const std::vector<real_t>& x,
                 const std::vector<real_t>& b);

inline constexpr double kResidualLimit = 1e-10;

}  // namespace perfbench
