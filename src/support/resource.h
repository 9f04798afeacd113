// Resource governance primitives: memory budgets and cooperative
// cancellation, shared by every execution engine in the stack.
//
// A ResourceBudget is a concurrent byte meter with a hard ceiling: jobs
// *reserve* their estimated peak working set before allocating anything
// (admission control — see mf/governed.h for the degradation ladder that
// consumes a failed reservation), hold the RAII Reservation for as long as
// the memory lives, and the budget tracks the high-water mark across all
// concurrent holders. A CancelSource/CancelToken pair carries cooperative
// cancellation and deadlines: long-running engines poll the token at task
// boundaries (one front in the serial driver, one task in a run_graph
// run) and unwind with StatusError(kCancelled / kDeadlineExceeded),
// leaving pools and arenas immediately reusable.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "support/status.h"

namespace parfact {

/// Concurrent byte budget with peak tracking. limit_bytes == 0 means
/// unlimited (reservations always succeed but are still metered, so the
/// high-water mark is meaningful either way). Thread-safe.
class ResourceBudget {
 public:
  ResourceBudget() = default;
  explicit ResourceBudget(std::size_t limit_bytes) : limit_(limit_bytes) {}

  [[nodiscard]] bool limited() const { return limit_ > 0; }
  [[nodiscard]] std::size_t limit_bytes() const { return limit_; }

  /// Atomically reserves `bytes` if the ceiling allows it; updates the
  /// high-water mark on success. Prefer the RAII Reservation below.
  [[nodiscard]] bool try_reserve(std::size_t bytes);
  void release(std::size_t bytes);

  [[nodiscard]] std::size_t live_bytes() const {
    return live_.load(std::memory_order_relaxed);
  }
  /// High-water mark of concurrently reserved bytes over this budget's life.
  [[nodiscard]] std::size_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t limit_ = 0;
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};
};

/// RAII hold on a ResourceBudget reservation; releases on destruction.
/// Move-only, so ownership of the bytes follows the object that holds the
/// memory (e.g. the Solver keeps the factorization's reservation alive for
/// as long as the factor is resident).
class Reservation {
 public:
  Reservation() = default;
  Reservation(Reservation&& other) noexcept
      : budget_(other.budget_), bytes_(other.bytes_) {
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  Reservation& operator=(Reservation&& other) noexcept;
  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;
  ~Reservation() { reset(); }

  /// Tries to reserve `bytes` from `budget`; empty optional if the ceiling
  /// would be exceeded (the admission decision).
  [[nodiscard]] static std::optional<Reservation> acquire(
      ResourceBudget& budget, std::size_t bytes);

  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] bool held() const { return budget_ != nullptr; }
  void reset();

 private:
  Reservation(ResourceBudget* budget, std::size_t bytes)
      : budget_(budget), bytes_(bytes) {}

  ResourceBudget* budget_ = nullptr;
  std::size_t bytes_ = 0;
};

namespace detail {

/// Shared state behind a CancelSource and its tokens. The reason is latched
/// by the first trigger observed, so a job that races a deadline against an
/// explicit cancel reports one stable code.
struct CancelShared {
  std::atomic<bool> cancelled{false};
  /// Latched StatusCode of the first trigger (kOk until one fires).
  std::atomic<int> reason{0};
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  /// Deterministic test hook: the n-th cancelled() poll fires kCancelled
  /// (-1 = disabled). Lets tests cancel "at task index k" reproducibly.
  std::int64_t trip_after_polls = -1;
  std::atomic<std::int64_t> polls{0};
};

}  // namespace detail

/// Poll handle passed into execution engines. A default-constructed token
/// never cancels and costs one branch per poll. Copyable; all copies
/// observe the same source.
class CancelToken {
 public:
  CancelToken() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// One cooperative poll: true once the source was cancelled, the deadline
  /// passed, or the test trip-count was reached. First trigger latches the
  /// reason. Each call counts as one poll for the trip hook.
  [[nodiscard]] bool cancelled() const;

  /// kCancelled or kDeadlineExceeded once cancelled() returned true
  /// (without re-polling); kOk otherwise.
  [[nodiscard]] StatusCode reason() const;

  /// Polls, and throws StatusError carrying the reason when triggered —
  /// the one-liner engines call at every task boundary.
  void throw_if_cancelled() const;

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelShared> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelShared> state_;
};

/// Owner side of a cancellation scope: one per governed operation. Configure
/// the deadline / test trip *before* handing out tokens that are polled
/// concurrently; request_cancel() is safe from any thread at any time.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelShared>()) {}

  [[nodiscard]] CancelToken token() const { return CancelToken(state_); }

  /// Explicit cancellation (latches kCancelled unless a deadline won).
  void request_cancel();

  /// Arms a host-clock deadline `seconds` from now; polls past it latch
  /// kDeadlineExceeded. seconds <= 0 fires on the next poll.
  void set_deadline_after(double seconds);

  /// Deterministic test hook: the n-th token poll (n >= 1) fires
  /// kCancelled. n < 0 disables.
  void trip_after_polls(std::int64_t n);

  [[nodiscard]] bool cancel_requested() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<detail::CancelShared> state_;
};

}  // namespace parfact
