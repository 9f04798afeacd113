// Structured error/recovery reporting for the robustness layer.
//
// The low-level numeric and communication code still signals unrecoverable
// problems with exceptions (StatusError, which carries a Status), because
// unwinding through the multifrontal recursion and the mpsim rank threads is
// what exceptions are for. The driver-level entry points
// (multifrontal_factorize_governed, distributed_factor_checked,
// Solver::factorize)
// catch at the boundary and hand the caller a plain Status value instead, so
// "the matrix needed 3 pivot perturbations" or "rank 2 exhausted its message
// retries" is data, not control flow.
#pragma once

#include <string>

#include "support/error.h"
#include "support/types.h"

namespace parfact {

/// Outcome classification for factorization / solve / communication paths.
enum class StatusCode {
  kOk = 0,          ///< clean success
  kPerturbed,       ///< success, but static pivoting boosted >= 1 pivot
  kBreakdown,       ///< numeric breakdown not recoverable by boosting
  kCommFailure,     ///< message lost after exhausting retries
  kCommTimeout,     ///< a wait ran past the host-time safety timeout
  kRankFailure,     ///< a rank crashed and no spare could take over
  kDataCorruption,  ///< OOC panel checksum mismatch after re-read retry
  kNoConvergence,   ///< refinement/CG escalation missed the residual target
  kInvalidInput,    ///< malformed input detected before factorization
  kInternal,        ///< unexpected error escaping a checked entry point
  kCancelled,          ///< caller requested cooperative cancellation
  kDeadlineExceeded,   ///< host-clock deadline fired mid-operation
  kResourceExhausted,  ///< memory budget too small even for OOC spill
};

/// Short stable name for a code ("ok", "perturbed", ...).
const char* status_code_name(StatusCode code);

/// Value-type outcome report. `kOk` and `kPerturbed` both count as ok():
/// a perturbed factorization produced a usable factor, callers that care
/// about exactness inspect `perturbations`.
struct Status {
  StatusCode code = StatusCode::kOk;
  std::string message;
  count_t perturbations = 0;      ///< pivots boosted by static pivoting
  index_t failed_supernode = kNone;  ///< supernode where a failure surfaced

  [[nodiscard]] bool ok() const {
    return code == StatusCode::kOk || code == StatusCode::kPerturbed;
  }
  [[nodiscard]] bool failed() const { return !ok(); }

  /// "perturbed: 3 pivot(s) boosted" style one-liner for logs and tests.
  [[nodiscard]] std::string to_string() const;

  static Status success(count_t perturbations = 0);
  static Status failure(StatusCode code, std::string message,
                        index_t supernode = kNone);
};

/// Exception carrying a Status through layers that unwind on failure.
class StatusError : public Error {
 public:
  explicit StatusError(Status status);

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  Status status_;
};

}  // namespace parfact
