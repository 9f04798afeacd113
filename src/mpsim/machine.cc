#include "mpsim/machine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "support/checksum.h"
#include "support/error.h"
#include "support/status.h"

namespace parfact::mpsim {

namespace {

/// splitmix64 finalizer — the scrambler behind the fault dice.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform [0, 1) draw for one fault decision. Purely a
/// function of its arguments: host scheduling cannot perturb the dice.
double fault_roll(std::uint64_t seed, int src, int dest, int tag,
                  std::uint64_t seq, int draw) {
  std::uint64_t h = mix64(seed);
  h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                 << 32 |
                 static_cast<std::uint32_t>(dest)));
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
  h = mix64(h ^ seq);
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(draw)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Prefix carried by every point-to-point message when faults are active.
/// The payload digest defends against wire bit flips (FaultPlan::BitFlip
/// site 0): a corrupted copy fails verification at the receiver and is
/// discarded exactly like a link loss, so the sender's retry loop heals it.
struct WireHeader {
  std::uint64_t seq;
  std::uint64_t payload_checksum;
};

/// Internal control-flow signal: this rank's virtual clock crossed its
/// Crash{rank, at} entry. Deliberately not derived from parfact::Error so
/// rank programs that catch Error cannot swallow a crash; run_spmd's thread
/// wrapper is the only catcher.
struct RankCrashed {};

/// Validates a FaultPlan before any rank thread starts (satellite task:
/// out-of-range rates used to feed the hash dice undefined probabilities).
void validate_plan(const FaultPlan& p, int n_ranks) {
  const auto fail = [](const std::string& what) {
    throw StatusError(Status::failure(StatusCode::kInvalidInput,
                                      "mpsim: invalid FaultPlan: " + what));
  };
  const auto rate = [&](double v, const char* name) {
    if (!(v >= 0.0 && v <= 1.0)) {  // negated to also reject NaN
      fail(std::string(name) + " must lie in [0, 1]");
    }
  };
  rate(p.drop_rate, "drop_rate");
  rate(p.duplicate_rate, "duplicate_rate");
  rate(p.delay_rate, "delay_rate");
  rate(p.ack_drop_rate, "ack_drop_rate");
  if (!(p.delay_seconds >= 0.0)) fail("delay_seconds must be >= 0");
  if (p.max_retries < 1) fail("max_retries must be >= 1");
  if (!(p.retry_backoff_seconds > 0.0)) {
    fail("retry_backoff_seconds must be > 0");
  }
  // Each budget becomes a steady_clock deadline, now() plus the budget in
  // integer ticks; past this cap (or at +inf) that sum overflows and the
  // deadline lands in the past.
  constexpr double kMaxHostSeconds = 1e6;
  if (!(p.recv_timeout_host_seconds > 0.0 &&
        p.recv_timeout_host_seconds <= kMaxHostSeconds)) {
    fail("recv_timeout_host_seconds must lie in (0, 1e6]");
  }
  if (!(p.run_timeout_host_seconds >= 0.0 &&
        p.run_timeout_host_seconds <= kMaxHostSeconds)) {
    fail("run_timeout_host_seconds must lie in [0, 1e6]");
  }
  if (p.spare_ranks < 0) fail("spare_ranks must be >= 0");
  for (const FaultPlan::Stall& s : p.stalls) {
    if (s.rank < 0 || s.rank >= n_ranks) fail("stall names a nonexistent rank");
    if (!(s.at >= 0.0)) fail("stall time must be >= 0");
    if (!(s.duration >= 0.0)) fail("stall duration must be >= 0");
  }
  for (const FaultPlan::Crash& c : p.crashes) {
    if (c.rank < 0 || c.rank >= n_ranks) fail("crash names a nonexistent rank");
    if (!(c.at >= 0.0)) fail("crash time must be >= 0");
  }
  for (const FaultPlan::BitFlip& f : p.bit_flips) {
    if (f.rank < 0 || f.rank >= n_ranks) {
      fail("bit flip names a nonexistent rank");
    }
    if (f.site != 0 && f.site != 1) fail("bit flip site must be 0 or 1");
    if (f.bit < 0 || f.bit > 63) fail("bit flip bit must lie in [0, 63]");
    if (!(f.at >= 0.0)) fail("bit flip time must be >= 0");
  }
}

}  // namespace

class Machine {
 public:
  enum RankState : std::uint8_t {
    kAlive = 0,             // running (or already replaced by a spare)
    kDeadRecoverable = 1,   // crashed; its designated spare will adopt it
    kDeadUnrecoverable = 2  // crashed; no spare — peers must diagnose
  };

  Machine(int n, const MachineModel& model, const FaultPlan& plan)
      : model_(model),
        plan_(plan),
        faults_(plan.active()),
        retain_(!plan.crashes.empty() || plan.spare_ranks > 0),
        n_(n),
        boxes_(static_cast<std::size_t>(n)),
        replacement_(static_cast<std::size_t>(n), -1),
        spare_target_(static_cast<std::size_t>(std::max(plan.spare_ranks, 0)),
                      -1),
        dead_(static_cast<std::size_t>(n), 0),
        death_clock_(static_cast<std::size_t>(n), 0.0),
        checkpoints_(static_cast<std::size_t>(n)),
        rank_state_(new std::atomic<std::uint8_t>[static_cast<std::size_t>(n)]) {
    for (int r = 0; r < n; ++r) rank_state_[r].store(kAlive);
  }

  const MachineModel model_;
  const FaultPlan plan_;
  const bool faults_;
  /// Retention mode (any crash or spare configured): per-channel message
  /// logs are never popped, receivers advance private cursors instead, so
  /// a replacement rank can replay a dead rank's communication history.
  const bool retain_;
  const int n_;

  struct Message {
    double arrival;
    std::vector<std::byte> data;
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::pair<int, int>, std::deque<Message>> queues;
  };
  std::vector<Mailbox> boxes_;

  // Failure bookkeeping; death_mu_ serializes crashes, adoptions and
  // checkpoints.
  struct ProtocolSnapshot {
    std::map<std::pair<int, int>, std::uint64_t> send_seq;
    std::map<std::pair<int, int>, std::uint64_t> recv_seq;
    std::map<std::pair<int, int>, std::size_t> consumed;
    count_t mem_live = 0;
    double clock = 0.0;
  };
  struct CheckpointSlot {
    bool has = false;
    std::vector<std::byte> blob;
    ProtocolSnapshot snap;
  };
  std::mutex death_mu_;
  std::condition_variable death_cv_;
  std::vector<int> replacement_;   ///< base rank -> spare index or -1
  std::vector<int> spare_target_;  ///< spare index -> base rank or -1
  std::vector<char> dead_;
  std::vector<double> death_clock_;
  std::vector<CheckpointSlot> checkpoints_;
  std::vector<int> failed_;
  std::vector<int> recovered_;
  std::vector<int> lost_;  ///< crashed with no spare
  int programs_remaining_ = 0;
  bool run_over_ = false;
  double recovery_overhead_ = 0.0;
  std::unique_ptr<std::atomic<std::uint8_t>[]> rank_state_;

  std::atomic<count_t> total_messages_{0};
  std::atomic<count_t> total_bytes_{0};
  /// Messages delivered to a mailbox but not yet consumed by a receiver,
  /// with the machine-wide high-water mark. Approximate under crash replay:
  /// retained-log entries are consumed once per incarnation that reads
  /// them, so the down-counter clamps at zero instead of going negative.
  std::atomic<count_t> in_flight_{0};
  std::atomic<count_t> max_in_flight_{0};

  void note_delivered() {
    const count_t now = in_flight_.fetch_add(1) + 1;
    count_t prev = max_in_flight_.load();
    while (now > prev && !max_in_flight_.compare_exchange_weak(prev, now)) {
    }
  }
  void note_consumed() {
    count_t prev = in_flight_.load();
    while (prev > 0 && !in_flight_.compare_exchange_weak(prev, prev - 1)) {
    }
  }

  std::atomic<count_t> total_retransmits_{0};
  std::atomic<count_t> total_dropped_{0};
  std::atomic<count_t> total_bit_flips_{0};
  std::atomic<count_t> total_corrupt_discarded_{0};
  std::atomic<count_t> checkpoints_stored_{0};
  std::atomic<count_t> checkpoint_bytes_{0};
  std::atomic<bool> aborted_{false};

  [[nodiscard]] RankState rank_state(int rank) const {
    return static_cast<RankState>(rank_state_[rank].load());
  }

  /// Records a fired crash; returns whether a spare will take over. Wakes
  /// every blocked receiver so wait predicates re-check the dead rank's
  /// state instead of hanging.
  bool note_death(int rank, double clock) {
    bool recoverable = false;
    {
      std::lock_guard<std::mutex> lock(death_mu_);
      dead_[static_cast<std::size_t>(rank)] = 1;
      death_clock_[static_cast<std::size_t>(rank)] = clock;
      failed_.push_back(rank);
      recoverable = replacement_[static_cast<std::size_t>(rank)] >= 0;
      rank_state_[rank].store(recoverable ? kDeadRecoverable
                                          : kDeadUnrecoverable);
      if (!recoverable) lost_.push_back(rank);
      death_cv_.notify_all();
    }
    for (auto& box : boxes_) {
      std::lock_guard<std::mutex> lock(box.mu);
      box.cv.notify_all();
    }
    return recoverable;
  }

  /// A base-rank program finished (normally, or was lost beyond recovery).
  /// When the last one does, idle spares are released.
  void note_program_done() {
    std::lock_guard<std::mutex> lock(death_mu_);
    if (--programs_remaining_ == 0) {
      run_over_ = true;
      death_cv_.notify_all();
    }
  }

  [[nodiscard]] std::string lost_ranks_string() {
    std::lock_guard<std::mutex> lock(death_mu_);
    std::ostringstream os;
    for (std::size_t i = 0; i < lost_.size(); ++i) {
      const auto r = static_cast<std::size_t>(lost_[i]);
      os << (i ? ", " : "") << lost_[i] << " (died at t=" << death_clock_[r]
         << "s)";
    }
    return os.str();
  }

  void abort_all() {
    aborted_.store(true);
    wake_all();
  }

  /// Watchdog fired: the whole run overran its host wall-clock budget. Every
  /// rank that is blocked (or next polls check_abort) raises kCommTimeout.
  void trigger_timeout() {
    timed_out_.store(true);
    wake_all();
  }

  void wake_all() {
    for (auto& box : boxes_) {
      std::lock_guard<std::mutex> lock(box.mu);
      box.cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(death_mu_);
      death_cv_.notify_all();
    }
  }

  [[nodiscard]] bool stop_requested() const {
    return aborted_.load() || timed_out_.load();
  }

  void check_abort() const {
    if (timed_out_.load()) {
      std::ostringstream os;
      os << "mpsim: run exceeded its wall-clock budget of "
         << plan_.run_timeout_host_seconds << " host seconds (livelock guard)";
      throw StatusError(Status::failure(StatusCode::kCommTimeout, os.str()));
    }
    if (aborted_.load()) {
      throw Error("mpsim: run aborted because another rank failed");
    }
  }

  std::atomic<bool> timed_out_{false};
};

int Comm::size() const { return machine_->n_; }

bool Comm::is_spare() const { return rank_ >= machine_->n_; }

void Comm::send(int dest, int tag, const void* data, std::size_t bytes) {
  PARFACT_CHECK(dest >= 0 && dest < machine_->n_);
  machine_->check_abort();
  // A self-send is a local memcpy: no latency, no link traffic.
  const bool local = dest == rank_;
  if (!machine_->faults_) {
    const double arrival =
        local ? clock_
              : clock_ + machine_->model_.alpha +
                    static_cast<double>(bytes) * machine_->model_.beta;
    if (!local) clock_ += machine_->model_.alpha;  // sender-side overhead
    Machine::Message msg;
    msg.arrival = arrival;
    msg.data.resize(bytes);
    if (bytes > 0) std::memcpy(msg.data.data(), data, bytes);
    auto& box = machine_->boxes_[dest];
    {
      std::lock_guard<std::mutex> lock(box.mu);
      box.queues[{rank_, tag}].push_back(std::move(msg));
    }
    box.cv.notify_all();
    machine_->note_delivered();
    if (!local) {
      machine_->total_messages_.fetch_add(1);
      machine_->total_bytes_.fetch_add(static_cast<count_t>(bytes));
    }
    return;
  }

  // A dead destination with a designated spare still accepts deliveries:
  // they land in its retained log for the replacement to consume. A dead
  // destination beyond recovery is a diagnosed failure, never a black hole.
  if (machine_->rank_state(dest) == Machine::kDeadUnrecoverable) {
    std::ostringstream os;
    os << "mpsim: rank " << rank_ << " at t=" << clock_
       << "s cannot send to rank " << dest << " (tag " << tag
       << "): that rank crashed and no spare took over";
    throw StatusError(Status::failure(StatusCode::kRankFailure, os.str()));
  }

  // Fault-injection path. All fault decisions for this message are resolved
  // here, synchronously: the in-process machine lets the sender know each
  // copy's fate, so "retransmit until a copy gets through" needs no ack
  // round-trip that could deadlock two ranks sending to each other. The
  // receiver's sequence check discards everything but the first accepted
  // copy, so faults change virtual time only, never payload or order.
  const FaultPlan& plan = machine_->plan_;
  const std::uint64_t seq = send_seq_[{dest, tag}]++;
  std::vector<std::byte> wire(sizeof(WireHeader) + bytes);
  const WireHeader header{seq, bulk_digest(data, bytes)};
  std::memcpy(wire.data(), &header, sizeof header);
  if (bytes > 0) std::memcpy(wire.data() + sizeof header, data, bytes);
  // Resolve a pending wire bit flip (BitFlip site 0) for this sender: the
  // first non-empty payload sent at or after the entry's virtual time gets
  // exactly one corrupted copy.
  int flip_index = -1;
  if (bytes > 0) {
    for (std::size_t fi = 0; fi < plan.bit_flips.size(); ++fi) {
      const FaultPlan::BitFlip& f = plan.bit_flips[fi];
      if (f.site == 0 && f.rank == rank_ && flip_fired_[fi] == 0 &&
          clock_ >= f.at) {
        flip_index = static_cast<int>(fi);
        break;
      }
    }
  }
  auto deliver_buf = [&](double arrival, const std::vector<std::byte>& buf) {
    Machine::Message msg;
    msg.arrival = arrival;
    msg.data = buf;  // copy — duplicates may deliver the same bytes again
    auto& box = machine_->boxes_[dest];
    {
      std::lock_guard<std::mutex> lock(box.mu);
      box.queues[{rank_, tag}].push_back(std::move(msg));
    }
    box.cv.notify_all();
    machine_->note_delivered();
    if (!local) {
      machine_->total_messages_.fetch_add(1);
      machine_->total_bytes_.fetch_add(static_cast<count_t>(buf.size()));
    }
  };
  auto deliver = [&](double arrival) { deliver_buf(arrival, wire); };
  if (local) {
    // The loopback "link" never faults: a rank cannot lose a memcpy.
    deliver(clock_);
    return;
  }
  bool delivered = false;
  for (int attempt = 0; attempt <= plan.max_retries; ++attempt) {
    if (attempt > 0) {
      // Bounded exponential backoff, charged to virtual time.
      tick(plan.retry_backoff_seconds *
           static_cast<double>(1ull << std::min(attempt - 1, 20)));
      machine_->total_retransmits_.fetch_add(1);
    }
    double arrival = clock_ + machine_->model_.alpha +
                     static_cast<double>(wire.size()) * machine_->model_.beta;
    tick(machine_->model_.alpha);  // each copy pays the sender-side overhead
    auto roll = [&](int draw) {
      return fault_roll(plan.seed, rank_, dest, tag, seq, attempt * 4 + draw);
    };
    if (roll(0) < plan.drop_rate) {
      machine_->total_dropped_.fetch_add(1);
      continue;  // copy lost on the link — back off and retransmit
    }
    if (roll(1) < plan.delay_rate) arrival += plan.delay_seconds;
    if (flip_index >= 0 &&
        flip_fired_[static_cast<std::size_t>(flip_index)] == 0) {
      const FaultPlan::BitFlip& f =
          plan.bit_flips[static_cast<std::size_t>(flip_index)];
      flip_fired_[static_cast<std::size_t>(flip_index)] = 1;
      machine_->total_bit_flips_.fetch_add(1);
      std::vector<std::byte> corrupted = wire;
      flip_bit_in_bytes(corrupted.data() + sizeof(WireHeader), bytes, f.word,
                        f.bit);
      deliver_buf(arrival, corrupted);
      // With wire checksums on the receiver discards the corrupt copy
      // without advancing its stream — behave like a lost copy and
      // retransmit clean after backoff. Without them, the flip is a silent
      // delivery the end-to-end layers must catch.
      if (plan.wire_checksums) continue;
      delivered = true;
    } else {
      deliver(arrival);
      delivered = true;
    }
    if (roll(2) < plan.duplicate_rate) {
      deliver(arrival + machine_->model_.alpha);  // link-duplicated copy
    }
    if (roll(3) < plan.ack_drop_rate) continue;  // ack lost: spurious resend
    break;
  }
  if (!delivered) {
    std::ostringstream os;
    os << "mpsim: message " << rank_ << " -> " << dest << " (tag " << tag
       << ", seq " << seq << ") at t=" << clock_ << "s lost "
       << plan.max_retries + 1 << " consecutive copies; giving up";
    throw StatusError(Status::failure(StatusCode::kCommFailure, os.str()));
  }
}

bool Comm::fetch_message(int source, int tag, bool blocking, Staged* out) {
  PARFACT_CHECK(source >= 0 && source < machine_->n_);
  auto& box = machine_->boxes_[rank_];
  const auto key = std::make_pair(source, tag);
  const FaultPlan& plan = machine_->plan_;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(plan.recv_timeout_host_seconds));
  if (!machine_->faults_) {
    std::unique_lock<std::mutex> lock(box.mu);
    const auto have = [&] {
      if (machine_->stop_requested()) return true;
      const auto it = box.queues.find(key);
      return it != box.queues.end() && !it->second.empty();
    };
    if (!blocking) {
      if (!have()) return false;
    } else if (!box.cv.wait_until(lock, deadline, have)) {
      lock.unlock();
      std::ostringstream os;
      os << "mpsim: rank " << rank_ << " at t=" << clock_
         << "s timed out after " << plan.recv_timeout_host_seconds
         << "s of host time waiting for (source " << source << ", tag "
         << tag << ")";
      throw StatusError(Status::failure(StatusCode::kCommTimeout, os.str()));
    }
    machine_->check_abort();
    auto& q = box.queues[key];
    Machine::Message msg = std::move(q.front());
    q.pop_front();
    lock.unlock();
    machine_->note_consumed();
    out->arrival = msg.arrival;
    out->payload = std::move(msg.data);
    return true;
  }

  // Fault path: strip the wire header, accept exactly the next expected
  // sequence number, silently discard stale duplicates, and bound the host
  // wait so an injected fault can never turn into a hang. In retention
  // mode the log is never popped — this rank's private cursor advances
  // instead, and the wait also wakes when the source is dead beyond
  // recovery (its stream can never be completed → kRankFailure). A source
  // that is dead but has a designated spare keeps us waiting: the
  // replacement will replay the stream, and the sequence check makes the
  // already-consumed prefix idempotent.
  const bool retain = machine_->retain_;
  std::uint64_t& expected = recv_seq_[key];
  std::size_t& cursor = consumed_[key];
  std::unique_lock<std::mutex> lock(box.mu);
  for (;;) {
    const auto pending = [&] {
      if (machine_->stop_requested()) return true;
      if (machine_->retain_ &&
          machine_->rank_state(source) == Machine::kDeadUnrecoverable) {
        return true;
      }
      const auto it = box.queues.find(key);
      if (it == box.queues.end()) return false;
      return retain ? cursor < it->second.size() : !it->second.empty();
    };
    if (!blocking) {
      if (!pending()) return false;
    } else if (!box.cv.wait_until(lock, deadline, pending)) {
      lock.unlock();
      std::ostringstream os;
      os << "mpsim: rank " << rank_ << " at t=" << clock_
         << "s timed out after " << plan.recv_timeout_host_seconds
         << "s of host time waiting for (source " << source << ", tag "
         << tag << "), expected seq " << expected;
      throw StatusError(Status::failure(StatusCode::kCommTimeout, os.str()));
    }
    machine_->check_abort();
    auto& q = box.queues[key];
    const bool have = retain ? cursor < q.size() : !q.empty();
    if (!have) {
      // Woken because the source crashed with no spare: whatever it sent
      // before dying has been drained, and nothing more can ever come. A
      // nonblocking probe reports "nothing pending"; the eventual wait
      // lands here blocking and raises the diagnosis.
      if (!blocking) return false;
      lock.unlock();
      std::ostringstream os;
      os << "mpsim: rank " << rank_ << " at t=" << clock_
         << "s was waiting for (source " << source << ", tag " << tag
         << ", seq " << expected << "), but rank " << source
         << " crashed and no spare took over";
      throw StatusError(Status::failure(StatusCode::kRankFailure, os.str()));
    }
    Machine::Message msg;
    if (retain) {
      msg = q[cursor];  // copy: the log survives for a possible replay
      ++cursor;
    } else {
      msg = std::move(q.front());
      q.pop_front();
    }
    machine_->note_consumed();
    PARFACT_CHECK(msg.data.size() >= sizeof(WireHeader));
    WireHeader header;
    std::memcpy(&header, msg.data.data(), sizeof header);
    if (header.seq != expected) {
      // Sends resolve all copies of seq k before starting seq k+1 and the
      // per-link queue is FIFO, so a mismatch can only be a stale duplicate.
      PARFACT_CHECK_MSG(header.seq < expected,
                        "mpsim: out-of-order sequence number");
      continue;  // duplicate of an already-accepted copy
    }
    if (plan.wire_checksums &&
        header.payload_checksum !=
            bulk_digest(msg.data.data() + sizeof header,
                        msg.data.size() - sizeof header)) {
      // Payload digest mismatch: an injected (or modeled) wire bit flip.
      // Discard without advancing the stream — the sender resolved the
      // corrupt copy as undelivered and will retransmit a clean one.
      machine_->total_corrupt_discarded_.fetch_add(1);
      continue;
    }
    ++expected;
    lock.unlock();
    out->arrival = msg.arrival;
    out->payload.assign(msg.data.begin() + sizeof header, msg.data.end());
    return true;
  }
}

Request Comm::irecv(int source, int tag) {
  PARFACT_CHECK(source >= 0 && source < machine_->n_);
  Channel& ch = channels_[{source, tag}];
  Request r;
  r.peer_ = source;
  r.tag_ = tag;
  r.ticket_ = ch.posted++;
  r.active_ = true;
  ++pending_irecvs_;
  return r;
}

bool Comm::fill_channel(Channel& ch, int source, int tag,
                        std::uint64_t ticket, bool blocking) {
  while (ch.filled <= ticket) {
    Staged st;
    if (!fetch_message(source, tag, blocking, &st)) {
      return false;
    }
    ch.staged.emplace(ch.filled++, std::move(st));
  }
  return true;
}

void Comm::complete_recv(Request& r, Staged&& st, bool count_idle) {
  if (count_idle) idle_wait_ += std::max(0.0, st.arrival - clock_);
  clock_ = std::max(clock_, st.arrival);
  r.arrival_ = st.arrival;
  r.payload_ = std::move(st.payload);
  r.done_ = true;
  --pending_irecvs_;
  apply_stalls();
  maybe_crash();
}

bool Comm::test(Request& r) {
  Channel& ch = channels_[{r.peer_, r.tag_}];
  auto it = ch.staged.find(r.ticket_);
  if (it == ch.staged.end()) {
    if (!fill_channel(ch, r.peer_, r.tag_, r.ticket_, /*blocking=*/false)) {
      return false;
    }
    it = ch.staged.find(r.ticket_);
    PARFACT_DCHECK(it != ch.staged.end());
  }
  // Virtual-time honesty: a rank cannot observe a message before its
  // arrival time; test never advances the clock to make one observable.
  if (it->second.arrival > clock_) return false;
  Staged st = std::move(it->second);
  ch.staged.erase(it);
  complete_recv(r, std::move(st), /*count_idle=*/false);
  return true;
}

void Comm::complete_blocking(Request& r) {
  Channel& ch = channels_[{r.peer_, r.tag_}];
  auto it = ch.staged.find(r.ticket_);
  if (it == ch.staged.end()) {
    const bool ok =
        fill_channel(ch, r.peer_, r.tag_, r.ticket_, /*blocking=*/true);
    PARFACT_CHECK(ok);
    it = ch.staged.find(r.ticket_);
    PARFACT_CHECK(it != ch.staged.end());
  }
  Staged st = std::move(it->second);
  ch.staged.erase(it);
  complete_recv(r, std::move(st), /*count_idle=*/true);
}

std::vector<std::byte> Comm::wait(Request& r) {
  PARFACT_CHECK_MSG(r.active_, "mpsim: wait on a default-constructed Request");
  machine_->check_abort();
  if (!r.done_) complete_blocking(r);
  return std::move(r.payload_);
}

std::size_t Comm::wait_any(std::vector<Request>& rs) {
  machine_->check_abort();
  ++wait_any_calls_;
  // Fast path: claim an already-arrived message in posting order, without
  // advancing the clock. Whether a virtually-arrived message is physically
  // visible yet depends on host scheduling, but test() is clock-neutral, so
  // the rank's virtual trajectory is the same either way — a miss here only
  // defers the completion to a later, deterministic wait.
  std::size_t first_pending = rs.size();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    Request& r = rs[i];
    if (!r.active_ || r.done_) continue;
    if (first_pending == rs.size()) first_pending = i;
    if (test(r)) {
      note_pool_drained(rs);
      return i;
    }
  }
  PARFACT_CHECK_MSG(first_pending < rs.size(),
                    "mpsim: wait_any with no incomplete request in the pool");
  // Blocking path: wait the earliest-posted incomplete request. Pools are
  // posted in need order, so this is the next message the caller cannot
  // proceed without — and the choice is host-independent, which keeps the
  // clock/idle accounting deterministic (the completion only ever does
  // clock = max(clock, arrival)).
  complete_blocking(rs[first_pending]);
  note_pool_drained(rs);
  return first_pending;
}

void Comm::note_pool_drained(const std::vector<Request>& rs) {
  for (const Request& r : rs) {
    if (r.active_ && !r.done_) return;
  }
  // The pool just drained: count arrival-order inversions against posting
  // order. Virtual arrivals are deterministic, so this out-of-order measure
  // is a pure function of the schedule even though which wait_any call
  // completed which request is host-racy.
  double running_max = -std::numeric_limits<double>::infinity();
  count_t inversions = 0;
  for (const Request& r : rs) {
    if (!r.active_) continue;
    if (r.arrival_ < running_max) ++inversions;
    running_max = std::max(running_max, r.arrival_);
  }
  ooo_completions_ += inversions;
}

void Comm::checkpoint_save(int buddy, std::vector<std::byte> blob) {
  PARFACT_CHECK(buddy >= 0 && buddy < machine_->n_);
  // The protocol snapshot records sequence counters and log cursors, not
  // posted-receive tickets: a checkpoint with receives still outstanding
  // could not be resumed faithfully. Diagnosed rather than asserted so a
  // caller composing resilience with nonblocking lookahead gets a clean
  // kInvalidInput it can act on instead of an abort.
  if (pending_irecvs_ != 0) {
    std::ostringstream os;
    os << "mpsim: rank " << rank_ << " called checkpoint_save with "
       << pending_irecvs_
       << " irecv(s) outstanding; complete or drain every posted receive "
          "before checkpointing";
    throw StatusError(Status::failure(StatusCode::kInvalidInput, os.str()));
  }
  machine_->check_abort();
  // BitFlip site 1: corrupt the blob before it becomes durable. The flip
  // is detected only if this checkpoint is ever restored — the blob codec
  // checksums its payload and diagnoses kDataCorruption at decode time.
  const FaultPlan& plan = machine_->plan_;
  for (std::size_t fi = 0; fi < plan.bit_flips.size(); ++fi) {
    const FaultPlan::BitFlip& f = plan.bit_flips[fi];
    if (f.site == 1 && f.rank == rank_ && !flip_fired_.empty() &&
        flip_fired_[fi] == 0 && clock_ >= f.at && !blob.empty()) {
      flip_fired_[fi] = 1;
      machine_->total_bit_flips_.fetch_add(1);
      flip_bit_in_bytes(blob.data(), blob.size(), f.word, f.bit);
    }
  }
  const count_t bytes = static_cast<count_t>(blob.size());
  if (buddy != rank_) {
    // Synchronous ship to the buddy's memory: the checkpoint must be
    // durable before this rank proceeds, so the full transfer is charged.
    tick(machine_->model_.alpha +
         static_cast<double>(bytes) * machine_->model_.beta);
    machine_->total_messages_.fetch_add(1);
    machine_->total_bytes_.fetch_add(bytes);
  }
  Machine::CheckpointSlot slot;
  slot.has = true;
  slot.snap.send_seq = send_seq_;
  slot.snap.recv_seq = recv_seq_;
  slot.snap.consumed = consumed_;
  slot.snap.mem_live = mem_live_;
  slot.snap.clock = clock_;
  slot.blob = std::move(blob);
  {
    std::lock_guard<std::mutex> lock(machine_->death_mu_);
    machine_->checkpoints_[static_cast<std::size_t>(rank_)] = std::move(slot);
  }
  machine_->checkpoints_stored_.fetch_add(1);
  machine_->checkpoint_bytes_.fetch_add(bytes);
}

Takeover Comm::await_failure() {
  Machine& m = *machine_;
  PARFACT_CHECK_MSG(rank_ >= m.n_,
                    "mpsim: await_failure is for spare ranks only");
  const int spare_index = rank_ - m.n_;
  const int target =
      spare_index < static_cast<int>(m.spare_target_.size())
          ? m.spare_target_[static_cast<std::size_t>(spare_index)]
          : -1;
  // No deadline: a spare legitimately idles for the whole run, and every
  // way a run ends wakes it (its target's death, the last base program
  // finishing, any rank throwing, the run watchdog).
  std::unique_lock<std::mutex> lock(m.death_mu_);
  m.death_cv_.wait(lock, [&] {
    return m.stop_requested() || m.run_over_ ||
           (target >= 0 && m.dead_[static_cast<std::size_t>(target)] != 0);
  });
  m.check_abort();
  if (target < 0 || m.dead_[static_cast<std::size_t>(target)] == 0) {
    return Takeover{};  // run completed without this spare's crash firing
  }

  // Adopt the dead rank: this Comm *becomes* it. Protocol state (sequence
  // counters, log cursors, live memory) is restored from the checkpoint
  // snapshot, so replayed sends carry the original sequence numbers (peers
  // discard the already-consumed prefix) and replayed receives resume at
  // the right place in the retained logs. With no checkpoint the state is
  // pristine and the replacement replays the rank's life from the start.
  Takeover t;
  t.rank = target;
  t.failed_at = m.death_clock_[static_cast<std::size_t>(target)];
  const Machine::CheckpointSlot& slot =
      m.checkpoints_[static_cast<std::size_t>(target)];
  double checkpoint_clock = 0.0;
  if (slot.has) {
    t.checkpoint = slot.blob;
    send_seq_ = slot.snap.send_seq;
    recv_seq_ = slot.snap.recv_seq;
    consumed_ = slot.snap.consumed;
    mem_live_ = slot.snap.mem_live;
    mem_peak_ = std::max(mem_peak_, mem_live_);
    checkpoint_clock = slot.snap.clock;
  }
  // Fetching the blob back from the buddy is the restore's wire cost.
  const double restore_cost =
      m.model_.alpha +
      static_cast<double>(t.checkpoint.size()) * m.model_.beta;
  clock_ = t.failed_at + restore_cost;
  crash_at_ = std::numeric_limits<double>::infinity();
  rank_ = target;
  m.recovered_.push_back(target);
  m.recovery_overhead_ += (t.failed_at - checkpoint_clock) + restore_cost;
  m.rank_state_[target].store(Machine::kAlive);
  lock.unlock();
  if (!t.checkpoint.empty()) {
    machine_->total_messages_.fetch_add(1);
    machine_->total_bytes_.fetch_add(
        static_cast<count_t>(t.checkpoint.size()));
  }
  return t;
}

void Comm::advance_compute(count_t flops) {
  PARFACT_DCHECK(flops >= 0);
  const double s = static_cast<double>(flops) / machine_->model_.flop_rate;
  tick(s);
  compute_time_ += s;
}

void Comm::advance_bytes(count_t bytes) {
  PARFACT_DCHECK(bytes >= 0);
  tick(static_cast<double>(bytes) / machine_->model_.mem_rate);
}

void Comm::advance_seconds(double s) {
  PARFACT_DCHECK(s >= 0.0);
  tick(s);
}

void Comm::apply_stalls() {
  if (stall_fired_.empty()) return;
  const auto& stalls = machine_->plan_.stalls;
  for (std::size_t i = 0; i < stalls.size(); ++i) {
    if (stall_fired_[i] != 0 || stalls[i].rank != rank_) continue;
    if (clock_ >= stalls[i].at) {
      stall_fired_[i] = 1;
      clock_ += stalls[i].duration;
    }
  }
}

void Comm::maybe_crash() {
  if (clock_ >= crash_at_) {
    // Death lands exactly at the planned instant regardless of how far the
    // crossing advance overshot — keeps the failure schedule deterministic.
    clock_ = crash_at_;
    throw RankCrashed{};
  }
}

void Comm::tick(double seconds) {
  clock_ += seconds;
  apply_stalls();
  maybe_crash();
}

void Comm::memory_add(count_t bytes) {
  mem_live_ += bytes;
  mem_peak_ = std::max(mem_peak_, mem_live_);
}

void Comm::memory_sub(count_t bytes) {
  mem_live_ -= bytes;
  PARFACT_DCHECK(mem_live_ >= 0);
}

RunStats run_spmd(int n_ranks, const MachineModel& model,
                  const std::function<void(Comm&)>& rank_fn) {
  return run_spmd(n_ranks, model, FaultPlan{}, rank_fn);
}

RunStats run_spmd(int n_ranks, const MachineModel& model,
                  const FaultPlan& faults,
                  const std::function<void(Comm&)>& rank_fn) {
  PARFACT_CHECK(n_ranks >= 1);
  validate_plan(faults, n_ranks);
  Machine machine(n_ranks, model, faults);
  const int n_total = n_ranks + faults.spare_ranks;

  // Deterministic spare assignment: the k-th crash to fire (sorted by
  // (at, rank); a rank dies at most once, at its earliest entry) is adopted
  // by the k-th spare. The whole recovery schedule is thereby a pure
  // function of the plan — no races decide who rescues whom.
  {
    std::vector<FaultPlan::Crash> order = faults.crashes;
    std::sort(order.begin(), order.end(),
              [](const FaultPlan::Crash& a, const FaultPlan::Crash& b) {
                return a.at < b.at || (a.at == b.at && a.rank < b.rank);
              });
    std::vector<char> seen(static_cast<std::size_t>(n_ranks), 0);
    int next_spare = 0;
    for (const FaultPlan::Crash& c : order) {
      if (seen[static_cast<std::size_t>(c.rank)] != 0) continue;
      seen[static_cast<std::size_t>(c.rank)] = 1;
      if (next_spare < faults.spare_ranks) {
        machine.replacement_[static_cast<std::size_t>(c.rank)] = next_spare;
        machine.spare_target_[static_cast<std::size_t>(next_spare)] = c.rank;
        ++next_spare;
      }
    }
  }

  std::vector<Comm> comms;
  comms.reserve(static_cast<std::size_t>(n_total));
  for (int r = 0; r < n_total; ++r) {
    comms.push_back(Comm(&machine, r));
    comms.back().stall_fired_.assign(faults.stalls.size(), 0);
    comms.back().flip_fired_.assign(faults.bit_flips.size(), 0);
    double at = std::numeric_limits<double>::infinity();
    if (r < n_ranks) {
      for (const FaultPlan::Crash& c : faults.crashes) {
        if (c.rank == r) at = std::min(at, c.at);
      }
    }
    comms.back().crash_at_ = at;
  }
  machine.programs_remaining_ = n_ranks;

  // Wall-clock watchdog: if the whole run overstays its host-seconds budget
  // (a livelocked protocol, a lost wakeup), trip the machine so every blocked
  // rank raises kCommTimeout instead of hanging the process. The watchdog is
  // a plain wait_for on a flagged cv — it costs nothing unless it fires.
  std::mutex watchdog_mu;
  std::condition_variable watchdog_cv;
  bool run_finished = false;
  std::thread watchdog;
  if (faults.run_timeout_host_seconds > 0.0) {
    watchdog = std::thread([&] {
      std::unique_lock<std::mutex> lock(watchdog_mu);
      const bool finished = watchdog_cv.wait_for(
          lock, std::chrono::duration<double>(faults.run_timeout_host_seconds),
          [&] { return run_finished; });
      if (!finished) machine.trigger_timeout();
    });
  }

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_total));
  for (int r = 0; r < n_total; ++r) {
    threads.emplace_back([&, r] {
      Comm& comm = comms[r];
      try {
        comm.maybe_crash();  // a Crash{rank, at: 0} fires before any work
        rank_fn(comm);
        // A base rank finishing, or a spare that adopted one (its rank()
        // rebound below n_ranks), retires one of the n_ranks programs.
        if (comm.rank_ < n_ranks) machine.note_program_done();
      } catch (const RankCrashed&) {
        const bool recoverable = machine.note_death(comm.rank_, comm.clock_);
        if (!recoverable) machine.note_program_done();  // program is lost
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        machine.abort_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu);
      run_finished = true;
    }
    watchdog_cv.notify_all();
    watchdog.join();
  }
  if (machine.timed_out_.load() && !first_error) {
    std::ostringstream os;
    os << "mpsim: run exceeded its wall-clock budget of "
       << faults.run_timeout_host_seconds << " host seconds (livelock guard)";
    throw StatusError(Status::failure(StatusCode::kCommTimeout, os.str()));
  }
  if (first_error) std::rethrow_exception(first_error);
  if (!machine.lost_.empty()) {
    // Every surviving program finished without touching the dead rank(s);
    // the run still must not pretend the factorization is whole.
    std::ostringstream os;
    os << "mpsim: rank(s) " << machine.lost_ranks_string()
       << " crashed and no spare took over";
    throw StatusError(Status::failure(StatusCode::kRankFailure, os.str()));
  }

  RunStats stats;
  stats.rank_time.assign(static_cast<std::size_t>(n_ranks), 0.0);
  stats.rank_compute.assign(static_cast<std::size_t>(n_ranks), 0.0);
  stats.rank_peak_bytes.assign(static_cast<std::size_t>(n_ranks), 0);
  stats.wait_any_calls.assign(static_cast<std::size_t>(n_ranks), 0);
  for (const Comm& c : comms) {
    // A crashed incarnation and its replacement merge into one rank slot:
    // the rank's finish time is the replacement's, compute adds up (the
    // replayed interval really was executed twice in virtual time), and
    // peak memory takes the worse of the two. Idle spares report nothing.
    if (c.rank_ >= n_ranks) continue;
    const auto slot = static_cast<std::size_t>(c.rank_);
    stats.rank_time[slot] = std::max(stats.rank_time[slot], c.clock_);
    stats.rank_compute[slot] += c.compute_time_;
    stats.idle_wait_seconds += c.idle_wait_;
    stats.rank_peak_bytes[slot] =
        std::max(stats.rank_peak_bytes[slot], c.mem_peak_);
    stats.wait_any_calls[slot] += c.wait_any_calls_;
    stats.messages_completed_out_of_order += c.ooo_completions_;
  }
  for (double t : stats.rank_time) stats.makespan = std::max(stats.makespan, t);
  double rank_seconds = 0.0;
  for (double t : stats.rank_time) rank_seconds += t;
  stats.overlap_efficiency =
      rank_seconds > 0.0
          ? std::max(0.0, 1.0 - stats.idle_wait_seconds / rank_seconds)
          : 1.0;
  stats.max_in_flight_messages = machine.max_in_flight_.load();
  stats.total_messages = machine.total_messages_.load();
  stats.total_bytes = machine.total_bytes_.load();
  stats.total_retransmits = machine.total_retransmits_.load();
  stats.total_dropped = machine.total_dropped_.load();
  stats.total_bit_flips = machine.total_bit_flips_.load();
  stats.total_corrupt_discarded = machine.total_corrupt_discarded_.load();
  stats.rank_crashes = static_cast<count_t>(machine.failed_.size());
  stats.ranks_recovered = static_cast<count_t>(machine.recovered_.size());
  stats.checkpoints_stored = machine.checkpoints_stored_.load();
  stats.checkpoint_bytes = machine.checkpoint_bytes_.load();
  stats.recovery_overhead_seconds = machine.recovery_overhead_;
  return stats;
}

}  // namespace parfact::mpsim
