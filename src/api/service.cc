#include "api/service.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "support/error.h"
#include "support/thread_pool.h"
#include "symbolic/working_set.h"

namespace parfact {
namespace {

Status unknown_session(SessionId id) {
  std::ostringstream os;
  os << "unknown session id " << id;
  return Status::failure(StatusCode::kInvalidInput, os.str());
}

}  // namespace

/// One open matrix lifecycle. The mutex serializes every job on the
/// session — the no-torn-reads guarantee — while the atomic ticks let the
/// LRU and fairness machinery read recency without taking it.
struct SolverService::Session {
  std::mutex mu;
  std::unique_ptr<Solver> solver;
  Reservation reservation;  ///< resident-factor hold against the service budget
  std::atomic<std::uint64_t> last_touch{0};
  std::atomic<std::uint64_t> last_served{0};
  SessionId id = 0;
  bool ldlt = false;
};

SolverService::SolverService(ServiceOptions options)
    : options_(std::move(options)),
      budget_(options_.factor_cache_bytes) {
  if (options_.solver.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.solver.threads);
  }
}

SolverService::~SolverService() = default;

std::uint64_t SolverService::next_tick() {
  return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::shared_ptr<SolverService::Session> SolverService::find(
    SessionId id) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

void SolverService::gate_enter(std::uint64_t last_served, std::uint64_t seq) {
  if (options_.max_concurrent_jobs <= 0) return;
  std::unique_lock<std::mutex> lock(gate_mu_);
  gate_waiters_.push_back({last_served, seq});
  gate_cv_.wait(lock, [&] {
    if (gate_active_ >= options_.max_concurrent_jobs) return false;
    // Fair admission: the waiter whose session was served least recently
    // goes first; arrival order breaks ties (and orders a session's own
    // jobs FIFO).
    for (const GateWaiter& w : gate_waiters_) {
      if (std::make_pair(w.last_served, w.seq) <
          std::make_pair(last_served, seq)) {
        return false;
      }
    }
    return true;
  });
  gate_waiters_.erase(
      std::find_if(gate_waiters_.begin(), gate_waiters_.end(),
                   [&](const GateWaiter& w) { return w.seq == seq; }));
  ++gate_active_;
}

void SolverService::gate_leave() {
  if (options_.max_concurrent_jobs <= 0) return;
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    --gate_active_;
  }
  gate_cv_.notify_all();
}

Status SolverService::with_session(
    SessionId id, const std::function<Status(Session&)>& fn) {
  const std::shared_ptr<Session> session = find(id);
  if (session == nullptr) return unknown_session(id);
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  gate_enter(session->last_served.load(std::memory_order_relaxed), seq);
  Status status;
  try {
    std::lock_guard<std::mutex> lock(session->mu);
    session->last_touch.store(next_tick(), std::memory_order_relaxed);
    status = fn(*session);
    session->last_served.store(next_tick(), std::memory_order_relaxed);
  } catch (...) {
    gate_leave();
    throw;
  }
  gate_leave();
  jobs_completed_.fetch_add(1, std::memory_order_relaxed);
  return status;
}

Status SolverService::open(const SparseMatrix& lower, SessionId& id) {
  auto session = std::make_shared<Session>();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    session->id = next_id_++;
  }
  SolverOptions sopt = options_.solver;
  sopt.symbolic_cache = &cache_;
  sopt.shared_pool = pool_.get();
  {
    std::ostringstream os;
    os << (options_.spill_dir.empty() ? std::string("/tmp")
                                      : options_.spill_dir)
       << "/parfact_svc_" << static_cast<const void*>(this) << "_"
       << session->id << ".bin";
    sopt.spill_path = os.str();
  }
  session->ldlt = sopt.factor_kind == FactorKind::kLdlt;
  session->solver = std::make_unique<Solver>(std::move(sopt));
  try {
    session->solver->analyze(lower);
  } catch (const StatusError& e) {
    return e.status();
  } catch (const Error& e) {
    return Status::failure(StatusCode::kInvalidInput, e.what());
  }
  session->last_touch.store(next_tick(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    sessions_.emplace(session->id, session);
  }
  id = session->id;
  return Status::success();
}

Status SolverService::close(SessionId id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return unknown_session(id);
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // Serialize with (and wait out) any in-flight job before tearing down.
  std::lock_guard<std::mutex> lock(session->mu);
  session->reservation.reset();
  session->solver.reset();
  return Status::success();
}

void SolverService::prepare_capacity(Session& session) {
  session.reservation.reset();
  session.solver->set_memory_budget_bytes(
      options_.solver.memory_budget_bytes);
  if (!budget_.limited()) return;
  const std::size_t need =
      estimate_working_set(session.solver->symbolic(), session.ldlt)
          .factor_bytes;
  std::optional<Reservation> r = reserve_evicting(session, need);
  if (r.has_value()) {
    session.reservation = std::move(*r);
    return;
  }
  if (need > budget_.limit_bytes()) {
    // The factor cannot be resident even with every other session evicted:
    // run this factorization under the remaining headroom so the solver's
    // own admission ladder degrades to its checksummed OOC spill or returns
    // a diagnosed kResourceExhausted.
    const std::size_t live = budget_.live_bytes();
    const std::size_t headroom =
        budget_.limit_bytes() > live ? budget_.limit_bytes() - live
                                     : std::size_t{1};
    session.solver->set_memory_budget_bytes(headroom);
    return;
  }
  // Transient contention: the bytes are held by sessions that are mid-job
  // (evict_lru skips anything it cannot try_lock). The factor does fit the
  // cache, so run in-core and let finish_factor() reconcile — it acquires
  // the hold once peers go idle, or spills this factor to disk. Punishing
  // the job with a starvation budget here would reject work that merely
  // raced a busy peer.
}

void SolverService::finish_factor(Session& session, const Status& status) {
  if (!budget_.limited()) return;
  if (status.failed() || !session.solver->has_factor() ||
      session.solver->factor_spilled()) {
    session.reservation.reset();
    return;
  }
  if (session.reservation.held()) return;
  // The factor landed in-core without a hold (e.g. a fast-path refactorize
  // after an earlier failure): account for it now, evicting colder
  // sessions, and spill it if the budget truly cannot carry it.
  std::optional<Reservation> r =
      reserve_evicting(session, session.solver->factor_bytes());
  if (r.has_value()) {
    session.reservation = std::move(*r);
  } else {
    (void)spill(session);
  }
}

std::optional<Reservation> SolverService::reserve_evicting(
    const Session& requester, std::size_t need) {
  std::optional<Reservation> r = Reservation::acquire(budget_, need);
  while (!r.has_value() && evict_lru(&requester) != 0) {
    r = Reservation::acquire(budget_, need);
  }
  return r;
}

Status SolverService::spill(Session& session) {
  const std::size_t before = session.solver->spill_bytes_written();
  const Status status = session.solver->spill_factor();
  if (status.ok()) {
    const std::size_t written = session.solver->spill_bytes_written() - before;
    spill_bytes_written_.fetch_add(written, std::memory_order_relaxed);
    if (written == 0) spills_reused_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

std::size_t SolverService::evict_lru(const Session* requester) {
  // Sort on a snapshot of the recency ticks: other jobs keep bumping
  // last_touch, and keys that change mid-sort break std::sort's ordering
  // contract (it may then step outside the range).
  std::vector<std::pair<std::uint64_t, std::shared_ptr<Session>>> candidates;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    candidates.reserve(sessions_.size());
    for (const auto& [sid, s] : sessions_) {
      if (s.get() != requester) {
        candidates.emplace_back(
            s->last_touch.load(std::memory_order_relaxed), s);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& candidate : candidates) {
    const std::shared_ptr<Session>& victim = candidate.second;
    // try_lock: a session running a job is hot by definition — skip it
    // (and never deadlock with its job thread).
    std::unique_lock<std::mutex> lock(victim->mu, std::try_to_lock);
    if (!lock.owns_lock()) continue;
    if (victim->solver == nullptr || !victim->reservation.held()) continue;
    const std::size_t bytes = victim->reservation.bytes();
    if (spill(*victim).failed()) continue;
    victim->reservation.reset();
    sessions_evicted_.fetch_add(1, std::memory_order_relaxed);
    return bytes;
  }
  return 0;
}

void SolverService::try_reload(Session& session) {
  if (!session.solver->factor_spilled()) return;
  std::optional<Reservation> r = reserve_evicting(
      session, estimate_working_set(session.solver->symbolic(), session.ldlt)
                   .factor_bytes);
  if (!r.has_value()) return;  // no room: keep streaming from disk
  Status status = session.solver->unspill_factor();
  if (status.code == StatusCode::kDataCorruption) {
    // The scratch file failed its checksums: the session still holds its
    // matrix values, so rebuild the factor instead of surfacing the fault.
    status = session.solver->factorize();
  }
  if (status.ok() && !session.solver->factor_spilled()) {
    session.reservation = std::move(*r);
  }
}

Status SolverService::factorize(SessionId id) {
  return with_session(id, [this](Session& session) {
    prepare_capacity(session);
    Status status;
    try {
      status = session.solver->factorize();
    } catch (const StatusError& e) {
      status = e.status();  // breakdown surfaces as data, service stays up
    }
    finish_factor(session, status);
    return status;
  });
}

Status SolverService::refactorize(SessionId id,
                                  std::span<const real_t> new_values) {
  return with_session(id, [this, new_values](Session& session) {
    refactorizes_.fetch_add(1, std::memory_order_relaxed);
    // Resident factor ⇒ the in-place fast path, same bytes, keep the hold.
    const bool fast = session.solver->has_factor() &&
                      !session.solver->factor_spilled();
    if (!fast) prepare_capacity(session);
    Status status;
    try {
      status = session.solver->refactorize(new_values);
    } catch (const StatusError& e) {
      status = e.status();
    }
    finish_factor(session, status);
    return status;
  });
}

Status SolverService::solve(SessionId id, std::span<const real_t> b,
                            std::vector<real_t>& x) {
  return with_session(id, [this, b, &x](Session& session) {
    if (!session.solver->has_factor()) {
      return Status::failure(StatusCode::kInvalidInput,
                             "solve before factorize on this session");
    }
    if (budget_.limited()) try_reload(session);
    try {
      x = session.solver->solve(b);
    } catch (const StatusError& e) {
      return e.status();
    }
    return Status::success(session.solver->report().pivot_perturbations);
  });
}

Status SolverService::solve_batch(SessionId id, std::span<const real_t> b,
                                  index_t nrhs, std::vector<real_t>& x) {
  return with_session(id, [this, b, nrhs, &x](Session& session) {
    if (!session.solver->has_factor()) {
      return Status::failure(StatusCode::kInvalidInput,
                             "solve_batch before factorize on this session");
    }
    if (budget_.limited()) try_reload(session);
    try {
      x = session.solver->solve_refined(b, nrhs);
    } catch (const StatusError& e) {
      return e.status();
    }
    return Status::success(session.solver->report().pivot_perturbations);
  });
}

Status SolverService::report(SessionId id, SolverReport& out) const {
  const std::shared_ptr<Session> session = find(id);
  if (session == nullptr) return unknown_session(id);
  std::lock_guard<std::mutex> lock(session->mu);
  out = session->solver->report();
  out.sessions_evicted =
      static_cast<count_t>(sessions_evicted_.load(std::memory_order_relaxed));
  out.factor_cache_bytes = budget_.live_bytes();
  return Status::success();
}

ServiceStats SolverService::stats() const {
  ServiceStats st;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    st.sessions_open = static_cast<count_t>(sessions_.size());
  }
  st.sessions_evicted =
      static_cast<count_t>(sessions_evicted_.load(std::memory_order_relaxed));
  st.spill_bytes_written = static_cast<std::size_t>(
      spill_bytes_written_.load(std::memory_order_relaxed));
  st.spills_reused =
      static_cast<count_t>(spills_reused_.load(std::memory_order_relaxed));
  st.symbolic_cache_hits = cache_.hits();
  st.symbolic_cache_misses = cache_.misses();
  st.refactorizes =
      static_cast<count_t>(refactorizes_.load(std::memory_order_relaxed));
  st.jobs_completed =
      static_cast<count_t>(jobs_completed_.load(std::memory_order_relaxed));
  st.factor_cache_bytes = budget_.live_bytes();
  return st;
}

}  // namespace parfact
