// Multi-session serving engine: many concurrent solver sessions sharing
// one process — the deployment shape the symbolic-reuse work targets.
//
// A *session* is one matrix lifecycle: open(lower) analyzes (through the
// service's shared pattern-keyed SymbolicCache, so sessions with the same
// sparsity pattern pay for ordering + symbolic analysis once), then any mix
// of factorize / refactorize / solve / solve_batch jobs until close().
// All session jobs are Status-returning; an unknown id is a diagnosed
// kInvalidInput, never undefined behavior.
//
// Concurrency model: jobs on *different* sessions run concurrently (bounded
// by max_concurrent_jobs); jobs on *one* session serialize on the session's
// mutex, so a solve() racing a pending refactorize() on the same session
// never observes a torn factor — it simply runs before or after. Admission
// to the concurrency gate is fair: when jobs queue, the session served
// least recently goes first (FIFO within a session).
//
// Factor cache: factor_cache_bytes caps the total bytes of *resident*
// factors across sessions (transient factorization working memory is the
// per-solver memory_budget_bytes knob, not this one). When a factorization
// needs room, the least-recently-touched idle sessions are evicted — their
// factors spill to the checksummed OOC scratch path, still solvable by
// streaming, with the same bits. Touching a spilled session reloads it
// in-core when room exists (digest-verified; a corrupted scratch file
// triggers a transparent re-factorization from the session's retained
// matrix), and otherwise streams from disk. A reloaded session keeps its
// scratch file, so evicting it again while its factor is unchanged writes
// nothing (ServiceStats counts the bytes spills write and the reuses). A
// factor too large for the whole cache runs under the remaining headroom
// through the solver's own governed ladder — OOC spill or a diagnosed
// kResourceExhausted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <condition_variable>
#include <span>
#include <string>
#include <vector>

#include "api/solver.h"
#include "support/resource.h"
#include "support/status.h"
#include "support/types.h"

namespace parfact {

using SessionId = std::int64_t;

struct ServiceOptions {
  /// Per-session Solver configuration template. symbolic_cache and
  /// shared_pool are overwritten by the service (it wires its own, the
  /// cache holding SymbolicCache's default 64 patterns); spill_path is
  /// replaced by a unique per-session path under spill_dir.
  SolverOptions solver;
  /// Total resident factor bytes across sessions (0 = unlimited, never
  /// evict). LRU sessions spill to disk when a new factor needs the room.
  std::size_t factor_cache_bytes = 0;
  /// Directory for per-session OOC scratch files ("" = /tmp). It holds at
  /// most one file per open session: a session's evictions and its solver's
  /// own budget-driven spills share that session's path, and close()
  /// removes the file.
  std::string spill_dir;
  /// Maximum jobs in flight across all sessions (0 = unbounded). Excess
  /// jobs wait at the fair gate.
  int max_concurrent_jobs = 0;
};

/// Service-wide counters (point-in-time snapshot).
struct ServiceStats {
  count_t sessions_open = 0;
  count_t sessions_evicted = 0;    ///< LRU factor spills (cumulative)
  /// Scratch-file bytes the service's spills wrote, and the spills that
  /// wrote none because the session's kept file still held its unchanged
  /// factor (both cumulative).
  std::size_t spill_bytes_written = 0;
  count_t spills_reused = 0;
  count_t symbolic_cache_hits = 0;
  count_t symbolic_cache_misses = 0;
  count_t refactorizes = 0;
  count_t jobs_completed = 0;
  std::size_t factor_cache_bytes = 0;  ///< resident factor bytes right now
};

class SolverService {
 public:
  explicit SolverService(ServiceOptions options = {});
  ~SolverService();
  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Opens a session: analyzes `lower` (shared-cache-assisted) and returns
  /// its id in `id`. Invalid input comes back as a diagnosed Status.
  Status open(const SparseMatrix& lower, SessionId& id);

  /// Closes a session, waiting out its in-flight job; frees its factor,
  /// reservation, and scratch file.
  Status close(SessionId id);

  /// Numeric factorization of the session's current values.
  Status factorize(SessionId id);

  /// Numeric-only refactorization with new values (same pattern). Takes the
  /// in-place fast path whenever the session's factor is resident.
  Status refactorize(SessionId id, std::span<const real_t> new_values);

  /// Single right-hand-side solve (original ordering).
  Status solve(SessionId id, std::span<const real_t> b,
               std::vector<real_t>& x);

  /// Batched solve of nrhs column-major right-hand sides: the answers are
  /// exactly Solver::solve_refined(b, nrhs)'s — blocked sweeps, at most two
  /// blocked corrections with its early stop, then options.verify.
  Status solve_batch(SessionId id, std::span<const real_t> b, index_t nrhs,
                     std::vector<real_t>& x);

  /// The session's SolverReport with the service-wide sessions_evicted /
  /// factor_cache_bytes counters stamped in.
  Status report(SessionId id, SolverReport& out) const;

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] SymbolicCache& symbolic_cache() { return cache_; }

 private:
  struct Session;

  [[nodiscard]] std::shared_ptr<Session> find(SessionId id) const;
  /// Locks the session (serializing with its other jobs), runs `fn` inside
  /// the fair concurrency gate, and maintains touch/served ticks.
  Status with_session(SessionId id, const std::function<Status(Session&)>& fn);
  /// Pre-factorization admission: reserve factor bytes, evicting LRU
  /// sessions as needed; on failure, configure the solver to run under the
  /// remaining headroom (its ladder spills or rejects).
  void prepare_capacity(Session& session);
  /// Post-factorization bookkeeping: reconcile the reservation with where
  /// the factor actually landed (in-core, spilled, or absent).
  void finish_factor(Session& session, const Status& status);
  /// Reserves `need` factor-cache bytes for `requester`, evicting LRU
  /// sessions until the reservation fits or nothing is left to evict.
  [[nodiscard]] std::optional<Reservation> reserve_evicting(
      const Session& requester, std::size_t need);
  /// Spills the least-recently-touched idle session (not `requester`);
  /// returns the bytes freed (0 = no evictable candidate).
  std::size_t evict_lru(const Session* requester);
  /// Spills the session's resident factor, counting what the spill wrote.
  Status spill(Session& session);
  /// Brings a spilled session's factor back in-core if the budget allows,
  /// re-factorizing if the scratch file fails its checksums. Best effort:
  /// on failure the session keeps streaming from disk.
  void try_reload(Session& session);
  [[nodiscard]] std::uint64_t next_tick();
  void gate_enter(std::uint64_t last_served, std::uint64_t seq);
  void gate_leave();

  ServiceOptions options_;
  SymbolicCache cache_;
  std::unique_ptr<ThreadPool> pool_;  ///< shared by all sessions' solvers
  ResourceBudget budget_;             ///< resident-factor byte meter

  mutable std::mutex registry_mu_;
  std::map<SessionId, std::shared_ptr<Session>> sessions_;
  SessionId next_id_ = 1;

  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> sessions_evicted_{0};
  std::atomic<std::uint64_t> spill_bytes_written_{0};
  std::atomic<std::uint64_t> spills_reused_{0};
  std::atomic<std::uint64_t> refactorizes_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};

  struct GateWaiter {
    std::uint64_t last_served;
    std::uint64_t seq;
  };
  mutable std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  int gate_active_ = 0;
  std::vector<GateWaiter> gate_waiters_;
};

}  // namespace parfact
