// mpsim: an in-process message-passing machine with virtual time.
//
// This is the substitute for the paper's MPI cluster (see DESIGN.md §2).
// Rank programs are ordinary C++ functions running on one thread per rank and
// communicating through the MPI-like `Comm` handle with one point-to-point
// protocol: buffered tagged sends, and posted receives (irecv, then wait /
// wait_any) matched by (source, tag) in FIFO order. Semantics follow the
// message-passing model of the LLNL MPI tutorial: explicit cooperative
// transfers, no shared state between ranks.
//
// Virtual time: every rank carries a logical clock. Local computation
// advances it through Comm::advance_compute (flops / machine flop rate) and
// advance_bytes (bytes / memory rate); a message costs the sender `alpha`
// and arrives at `send_clock + alpha + bytes * beta`; a receive completes at
// max(receiver clock, arrival). The resulting makespan (max final clock) is
// the quantity every scaling experiment reports — it is deterministic and
// independent of how the host OS schedules the rank threads, which is what
// makes thousand-rank scaling studies meaningful on a one-core machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <vector>

#include "support/status.h"
#include "support/types.h"

namespace parfact::mpsim {

/// Cluster model parameters (alpha-beta-gamma). Defaults approximate a
/// commodity cluster node; experiments calibrate flop_rate from the measured
/// GEMM rate (dense::measure_gemm_rate) so shapes stay hardware-honest.
struct MachineModel {
  double flop_rate = 2.0e9;       ///< flop/s per rank
  double alpha = 5.0e-6;          ///< per-message latency, seconds
  double beta = 1.0e-9;           ///< seconds per byte on a link
  double mem_rate = 8.0e9;        ///< bytes/s for local assembly traffic
};

/// Aggregate statistics of one SPMD run.
struct RunStats {
  double makespan = 0.0;               ///< max final virtual clock
  std::vector<double> rank_time;       ///< final clock per rank
  std::vector<double> rank_compute;    ///< virtual seconds in compute per rank
  /// Σ over ranks of virtual time spent blocked on point-to-point arrivals
  /// (wait and wait_any advancing the clock to a later arrival). The
  /// overlap experiments report this: a lookahead schedule shrinks it.
  double idle_wait_seconds = 0.0;
  /// High-water mark of messages delivered but not yet consumed, machine
  /// wide. Approximate under crash replay (retained logs re-deliver).
  count_t max_in_flight_messages = 0;
  /// 1 − idle_wait / Σ rank_time: fraction of rank-seconds not spent
  /// blocked on message arrival (1.0 when there is no communication).
  double overlap_efficiency = 1.0;
  count_t total_messages = 0;
  count_t total_bytes = 0;
  /// wait_any pool diagnostics (the fan-both extend-add streams): receive
  /// completions whose virtual arrival precedes that of an earlier-posted
  /// request in the same pool. Computed from the deterministic arrival
  /// times when a pool drains, so the count is a pure function of the
  /// schedule — not of which host thread won a race.
  count_t messages_completed_out_of_order = 0;
  /// Comm::wait_any invocations per rank (each call completes exactly one
  /// request, so this is also the pooled-completion count per rank).
  std::vector<count_t> wait_any_calls;
  std::vector<count_t> rank_peak_bytes;  ///< peak app-reported memory
  count_t total_retransmits = 0;  ///< fault-injected extra transmissions
  count_t total_dropped = 0;      ///< fault-injected message losses
  count_t total_bit_flips = 0;    ///< injected bit flips that struck
  count_t total_corrupt_discarded = 0;  ///< wire copies failing checksum
  count_t rank_crashes = 0;       ///< injected rank crashes that fired
  count_t ranks_recovered = 0;    ///< crashed ranks taken over by a spare
  count_t checkpoints_stored = 0; ///< buddy checkpoints accepted
  count_t checkpoint_bytes = 0;   ///< total checkpoint payload shipped
  /// Σ over recoveries of (death − last checkpoint clock + restore cost):
  /// the virtual time of re-executed lost work plus state transfer.
  double recovery_overhead_seconds = 0.0;
};

/// Deterministic fault-injection plan for one SPMD run. All randomness is a
/// pure hash of (seed, src, dest, tag, seq, attempt), so two runs with the
/// same plan inject byte-identical faults regardless of host scheduling —
/// which is what lets tests assert "faulty run == fault-free run, bitwise".
///
/// When the plan is active every point-to-point message carries a per-link
/// (source, tag) sequence number. The sender resolves faults at send time
/// (the in-process machine lets it know each transmission's fate): a
/// dropped copy is retransmitted after an exponential virtual-time backoff,
/// a lost ack causes a spurious retransmission, and the receiver discards
/// any copy whose sequence number it has already accepted. Payload content
/// and per-link delivery order are therefore exactly those of the
/// fault-free run — faults cost only virtual time — or, if `max_retries`
/// consecutive copies of one message are dropped, the send throws
/// StatusError(kCommFailure).
///
/// Crash model: a `Crash{rank, at}` entry kills rank `rank` the moment its
/// virtual clock reaches `at` (mid-front, mid-panel, wherever that lands).
/// With `spare_ranks > 0`, run_spmd launches that many extra standby ranks;
/// the k-th spare is statically bound to the k-th crash entry (sorted by
/// (at, rank)), which makes the whole failure/recovery schedule a pure
/// function of the plan. A crashed rank with a designated spare is
/// *recoverable*: sends to it keep landing in its (retained) message log
/// for the replacement to replay, and receives from it block until the
/// replacement re-produces the stream. A crash with no spare left is
/// *unrecoverable*: sends to and receives from the dead rank raise
/// StatusError(kRankFailure).
///
/// Both host-time budgets (recv_timeout_host_seconds and
/// run_timeout_host_seconds) must be finite and at most 1e6 s (about 11.6
/// days): each becomes a steady_clock deadline, and a larger budget would
/// overflow the clock's 64-bit tick count.
struct FaultPlan {
  std::uint64_t seed = 1;          ///< dice seed; same seed → same faults
  double drop_rate = 0.0;          ///< P(message copy is lost on the link)
  double duplicate_rate = 0.0;     ///< P(link delivers an extra copy)
  double delay_rate = 0.0;         ///< P(copy arrives `delay_seconds` late)
  double delay_seconds = 1.0e-3;   ///< extra virtual latency when delayed
  double ack_drop_rate = 0.0;      ///< P(delivered but sender retransmits)
  int max_retries = 8;             ///< attempts per message before failing
  double retry_backoff_seconds = 1.0e-4;  ///< first backoff, doubles after
  /// Host-time bound on every posted wait (wait and wait_any), active or
  /// not: a message that never comes ends in StatusError(kCommTimeout)
  /// instead of a hang. A spare's await_failure is not bounded by it: a
  /// spare may idle for the whole run.
  double recv_timeout_host_seconds = 30.0;
  /// Rank `rank` freezes for `duration` virtual seconds the first time its
  /// clock reaches `at` (models a transient OS/GC stall, not a crash).
  struct Stall {
    int rank = 0;
    double at = 0.0;
    double duration = 0.0;
  };
  std::vector<Stall> stalls;
  /// Rank `rank` dies the first time its clock reaches `at`. Only base
  /// ranks may crash; a replacement that has adopted a dead rank's identity
  /// does not inherit its crash entries (no cascading re-crash).
  struct Crash {
    int rank = 0;
    double at = 0.0;
  };
  std::vector<Crash> crashes;
  /// Single-bit silent-data-corruption fault. Site 0 flips one bit of one
  /// wire payload: the first fault-path message `rank` sends at or after
  /// virtual time `at` (word selects the flipped 8-byte word, wrapped to
  /// the payload size). With `wire_checksums` on, the receiver detects the
  /// mismatch, discards the copy like a link loss and the sender's retry
  /// loop retransmits a clean copy — the run stays bitwise identical; with
  /// checksums off the flip is delivered silently (the end-to-end ABFT /
  /// verify layers must catch it downstream). Site 1 flips one bit of the
  /// next checkpoint blob `rank` stores; a spare restoring from it gets a
  /// diagnosed kDataCorruption.
  struct BitFlip {
    int rank = 0;
    double at = 0.0;
    int site = 0;            ///< 0 = wire payload, 1 = checkpoint blob
    std::uint64_t word = 0;  ///< 8-byte word index within the payload
    int bit = 62;            ///< bit within the word (62: exponent MSB)
  };
  std::vector<BitFlip> bit_flips;
  /// Payload digests (bulk_digest) on the fault-path wire format (site-0
  /// defense). On by default; campaigns switch it off to measure what an
  /// undefended wire lets through.
  bool wire_checksums = true;
  /// Standby ranks available to adopt crashed ranks (see Comm::await_failure).
  /// Rank programs must handle Comm::is_spare() when this is nonzero.
  int spare_ranks = 0;
  /// Wall-clock (host) budget for the whole run_spmd call; 0 disables. When
  /// the watchdog fires, every blocked or soon-to-block rank raises
  /// StatusError(kCommTimeout) instead of the run hanging the host. Unlike
  /// the knobs above this is a safety net, not an injected fault, so it
  /// deliberately does NOT make the plan active() — a run with only a
  /// timeout budget keeps the zero-overhead fault-free wire format.
  double run_timeout_host_seconds = 0.0;

  [[nodiscard]] bool active() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || delay_rate > 0.0 ||
           ack_drop_rate > 0.0 || !stalls.empty() || !crashes.empty() ||
           !bit_flips.empty() || spare_ranks > 0;
  }
};

class Machine;
class Comm;

/// Handle to a posted receive (Comm::irecv). Complete it with Comm::wait or
/// Comm::wait_any on the Comm that issued it. Requests are movable, not
/// copyable, and must not outlive their Comm.
class Request {
 public:
  Request() = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  Request(Request&&) = default;
  Request& operator=(Request&&) = default;

  /// True once the message has been claimed (a completed request holds its
  /// payload until wait() is called to take it).
  [[nodiscard]] bool done() const { return done_; }

  /// Virtual arrival time of a completed request (0 until it completes).
  [[nodiscard]] double arrival() const { return arrival_; }

 private:
  friend class Comm;
  int peer_ = -1;
  int tag_ = 0;
  std::uint64_t ticket_ = 0;  ///< FIFO position among irecvs on the channel
  bool done_ = false;
  bool active_ = false;       ///< issued by a Comm (default-constructed: no)
  double arrival_ = 0.0;
  std::vector<std::byte> payload_;
};

/// Runs `rank_fn` as an SPMD program on `n_ranks` virtual ranks (one host
/// thread each) and returns the run statistics. Rank program exceptions are
/// rethrown (first one wins) after all threads have been joined.
RunStats run_spmd(int n_ranks, const MachineModel& model,
                  const std::function<void(Comm&)>& rank_fn);

/// As above with fault injection. An inactive plan behaves exactly like the
/// overload without one: no wire headers, and posted waits bounded by the
/// plan's recv_timeout_host_seconds. The plan is validated on entry:
/// out-of-range rates, non-positive retry/backoff bounds, host-time budgets
/// that are not finite or exceed 1e6 s, or crash/stall entries naming
/// nonexistent ranks raise StatusError(kInvalidInput) before any rank
/// thread starts. With `faults.spare_ranks > 0`, `rank_fn` is additionally
/// invoked on the spare ranks, which must call `await_failure()` (see
/// below).
RunStats run_spmd(int n_ranks, const MachineModel& model,
                  const FaultPlan& faults,
                  const std::function<void(Comm&)>& rank_fn);

/// What a spare rank learns when it is activated (or released).
struct Takeover {
  int rank = -1;        ///< adopted rank id, or -1: run ended, spare unused
  double failed_at = 0.0;  ///< virtual death time of the adopted rank
  /// Last buddy-checkpoint blob the dead rank saved (empty if it never
  /// checkpointed: the replacement then replays from the very beginning).
  std::vector<std::byte> checkpoint;
};

/// Per-rank communicator handle passed to the rank program.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  /// True while this rank is an unassigned standby (rank() >= size()).
  [[nodiscard]] bool is_spare() const;

  /// Tagged send. Buffered: the sender pays `alpha` and the message is in
  /// flight when this returns.
  void send(int dest, int tag, const void* data, std::size_t bytes);

  /// Posts a receive for the next unclaimed message on (source, tag).
  /// Multiple outstanding irecvs on one channel match arrivals in posting
  /// order (FIFO), regardless of the order they are waited on.
  [[nodiscard]] Request irecv(int source, int tag);

  /// Blocks until the request completes and returns its payload. Advances
  /// the clock to max(clock, arrival) and accounts the jump as idle wait.
  /// Bounded by FaultPlan::recv_timeout_host_seconds of host time, with
  /// faults active or not: a lost message diagnoses kCommTimeout instead of
  /// hanging the harness.
  [[nodiscard]] std::vector<std::byte> wait(Request& r);

  /// Completes exactly one not-yet-done request in `rs` and returns its
  /// index; already-done requests are skipped, and at least one request
  /// must be incomplete. Progress rule, chosen so the rank clock stays a
  /// pure function of the schedule regardless of host thread timing: a
  /// message that has already arrived (virtual arrival ≤ this rank's clock)
  /// is claimed first, in posting order, without advancing the clock;
  /// otherwise the earliest-posted incomplete request is waited on (the
  /// clock advances to its arrival, accounted as idle wait). Post pools in
  /// need order so the blocking case always targets the request the caller
  /// cannot proceed without. The payload stays in the returned request —
  /// take it with wait / wait_vec, which return immediately on a completed
  /// request. When the call drains the pool's last request, arrival times
  /// are compared against posting order and the inversions are added to
  /// RunStats::messages_completed_out_of_order.
  [[nodiscard]] std::size_t wait_any(std::vector<Request>& rs);

  /// Typed wait: payload reinterpreted as a vector of T. A payload that is
  /// not a whole number of T raises StatusError(kDataCorruption).
  template <typename T>
  [[nodiscard]] std::vector<T> wait_vec(Request& r) {
    static_assert(std::is_trivially_copyable_v<T>);
    return bytes_to_vec<T>(wait(r), r.peer_, r.tag_);
  }

  /// Typed send of a vector of trivially copyable T.
  template <typename T>
  void send_vec(int dest, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag, v.data(), v.size() * sizeof(T));
  }

  /// Buddy checkpoint: ships `blob` to (notionally) rank `buddy`'s memory
  /// and snapshots this rank's communication-protocol state (sequence
  /// counters, log cursors, clock, live memory) alongside it, so a
  /// replacement can resume exactly at this boundary. Charged to the
  /// virtual clock like a message of the same size. Overwrites the
  /// previous checkpoint of this rank.
  void checkpoint_save(int buddy, std::vector<std::byte> blob);

  /// Spare ranks only: blocks until this spare's designated crash fires
  /// (returning the adopted rank id with its death time and last
  /// checkpoint) or the run completes without it (rank == -1). There is no
  /// host-time deadline: every way a run ends releases the spare (the last
  /// base program finishing, any rank throwing, which aborts the run, and
  /// the run watchdog, which raises kCommTimeout here as everywhere). On
  /// adoption this Comm *becomes* the dead rank: rank() changes, the
  /// protocol state is restored from the checkpoint snapshot, the clock is
  /// set to the death time plus the state-transfer cost, and the program
  /// should re-run the dead rank's work from the checkpoint.
  [[nodiscard]] Takeover await_failure();

  /// Virtual-time hooks.
  void advance_compute(count_t flops);
  void advance_bytes(count_t bytes);
  void advance_seconds(double s);
  [[nodiscard]] double now() const { return clock_; }

  /// Application memory accounting (peak is reported in RunStats).
  void memory_add(count_t bytes);
  void memory_sub(count_t bytes);

 private:
  friend class Machine;
  friend RunStats run_spmd(int, const MachineModel&, const FaultPlan&,
                           const std::function<void(Comm&)>&);
  Comm(Machine* machine, int rank) : machine_(machine), rank_(rank) {}

  /// Applies any pending stall window this rank's clock has reached.
  void apply_stalls();
  /// Fires this rank's crash entry if the clock has crossed it.
  void maybe_crash();
  /// Advances the clock and triggers stall/crash windows it crosses.
  void tick(double seconds);

  template <typename T>
  [[nodiscard]] std::vector<T> bytes_to_vec(std::vector<std::byte> raw,
                                            int source, int tag) const {
    if (raw.size() % sizeof(T) != 0) {
      std::ostringstream os;
      os << "mpsim: rank " << rank_ << " received " << raw.size()
         << " bytes from (source " << source << ", tag " << tag
         << "), not a multiple of the element size " << sizeof(T);
      throw StatusError(Status::failure(StatusCode::kDataCorruption,
                                        os.str()));
    }
    std::vector<T> v(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(v.data(), raw.data(), raw.size());
    return v;
  }

  /// One message staged for a posted irecv, keyed by ticket.
  struct Staged {
    double arrival = 0.0;
    std::vector<std::byte> payload;
  };
  /// Per-(source, tag) irecv bookkeeping: tickets issued, messages pulled
  /// from the mailbox so far, and pulled-but-not-yet-waited messages.
  struct Channel {
    std::uint64_t posted = 0;
    std::uint64_t filled = 0;
    std::map<std::uint64_t, Staged> staged;
  };

  /// Pulls the next unconsumed message on (source, tag) out of the mailbox,
  /// running the fault-protocol logic (dedup, retention cursor, dead-rank
  /// diagnosis). Returns false when `blocking` is false and nothing is
  /// pending; a blocking fetch throws kCommTimeout once the host-time net
  /// expires. Does not touch the virtual clock.
  bool fetch_message(int source, int tag, bool blocking, Staged* out);
  /// Pulls messages into `ch.staged` until `ticket` is staged (blocking) or
  /// the mailbox runs dry (nonblocking). Returns whether it is staged.
  bool fill_channel(Channel& ch, int source, int tag, std::uint64_t ticket,
                    bool blocking);
  /// wait_any's nonblocking probe of a pending request: completes `r` only
  /// if its message exists AND its virtual arrival is ≤ this rank's clock —
  /// the rank cannot observe a message "before it arrives". Never advances
  /// the clock. Returns r.done().
  bool test(Request& r);
  /// Blocks until `r`'s message is staged, then completes it (idle counted).
  void complete_blocking(Request& r);
  /// Completes a request whose message is staged: clock/idle/payload.
  void complete_recv(Request& r, Staged&& st, bool count_idle);
  /// Once every request in `rs` is done, adds the pool's arrival-vs-posting
  /// inversions to this rank's out-of-order completion counter (no-op while
  /// any request is still pending).
  void note_pool_drained(const std::vector<Request>& rs);

  Machine* machine_;
  int rank_;
  double clock_ = 0.0;
  double compute_time_ = 0.0;
  double idle_wait_ = 0.0;  ///< virtual seconds blocked on p2p arrivals
  std::map<std::pair<int, int>, Channel> channels_;
  count_t pending_irecvs_ = 0;
  count_t wait_any_calls_ = 0;
  count_t ooo_completions_ = 0;  ///< drained-pool arrival-order inversions
  count_t mem_live_ = 0;
  count_t mem_peak_ = 0;
  /// Virtual time at which this incarnation dies. run_spmd sets it (to the
  /// rank's earliest Crash entry, or +infinity) before the thread starts;
  /// adoption by a spare resets it to +infinity.
  double crash_at_ = 0.0;
  /// Fault-protocol state (unused when the plan is inactive): next sequence
  /// number per (dest, tag) link, next expected per (source, tag) link,
  /// per-channel consumed-entry cursor into the retained message log, and
  /// which of the plan's stall windows already fired for this rank.
  std::map<std::pair<int, int>, std::uint64_t> send_seq_;
  std::map<std::pair<int, int>, std::uint64_t> recv_seq_;
  std::map<std::pair<int, int>, std::size_t> consumed_;
  std::vector<char> stall_fired_;
  std::vector<char> flip_fired_;  ///< which plan BitFlip entries struck here
};

}  // namespace parfact::mpsim
