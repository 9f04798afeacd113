// Buddy checkpointing for the distributed factorization (DESIGN.md §5a).
//
// Each rank periodically ships a checkpoint blob to a partner ("buddy")
// rank's memory through Comm::checkpoint_save: a small header (the next
// supernode to execute and the rank's pivot-perturbation count so far) plus
// the panel values and outbound contribution entries produced since the
// previous checkpoint. A spare adopting a crashed rank decodes the header
// and re-executes only the fronts from `next_supernode` on — at most one
// checkpoint interval of lost work — while the mpsim protocol snapshot taken
// at the same instant makes the replayed communication idempotent.
//
// The payload bytes model the state-transfer volume: in this simulation the
// shared CholeskyFactor survives a rank crash (host memory is not actually
// lost), so restore needs only the header, but the blob still pays the full
// wire and (optionally) scratch-spill cost a real machine would.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mpsim/machine.h"
#include "support/status.h"
#include "support/types.h"

namespace parfact {

/// Crash-recovery configuration for distributed_factor / Solver.
struct ResiliencePolicy {
  /// Enable buddy checkpointing. Off by default: fault-free runs pay zero
  /// overhead, and a crash without checkpoints is still recovered by full
  /// replay (a spare re-executes the dead rank's life from supernode 0).
  bool buddy_checkpoint = false;
  /// Completed participating fronts between checkpoints. Smaller = less
  /// lost work per crash, more checkpoint traffic (bench_r2_recovery sweeps
  /// this trade-off).
  index_t checkpoint_interval = 8;
  /// Round-trip every checkpoint blob through a checksummed scratch file
  /// (the OOC writer's verify-on-read discipline): models spilling buddy
  /// state to node-local storage and catches torn writes as
  /// kDataCorruption.
  bool spill_to_scratch = false;
  /// Directory for scratch spills (empty = the system temp directory).
  std::string scratch_dir;
};

/// Header contents recovered from a checkpoint blob.
struct CheckpointImage {
  index_t next_supernode = 0;  ///< first front the replacement must execute
  count_t perturbations = 0;   ///< dead rank's pivot boosts before that front
};

/// Serializes a checkpoint blob. `payload` is the incremental panel +
/// contribution bytes since the previous checkpoint (content is opaque;
/// only its volume matters for the cost model).
[[nodiscard]] std::vector<std::byte> encode_checkpoint(
    const CheckpointImage& image, const std::vector<std::byte>& payload);

/// Decodes a blob produced by encode_checkpoint. An empty blob decodes to
/// the default image (replay from supernode 0). A malformed or truncated
/// blob raises StatusError(kDataCorruption).
[[nodiscard]] CheckpointImage decode_checkpoint(
    const std::vector<std::byte>& blob);

/// Per-rank checkpoint driver owned by the factorization rank program.
/// Accumulates the rank's incremental state and ships a blob to the buddy
/// every `checkpoint_interval` completed participating fronts.
class BuddyCheckpointer {
 public:
  /// An inactive checkpointer (policy.buddy_checkpoint == false) is a
  /// no-op sink; the rank program tees into it unconditionally.
  BuddyCheckpointer(mpsim::Comm& comm, const ResiliencePolicy& policy);

  [[nodiscard]] bool enabled() const { return policy_.buddy_checkpoint; }

  /// Tee-ins: factor-panel bytes stored and contribution-block bytes sent
  /// by the owning rank since the last checkpoint.
  void note_panel(const void* data, std::size_t bytes);
  void note_contribution(const void* data, std::size_t bytes);

  /// Called after each completed participating front; ships a checkpoint
  /// when the interval is up. `next_supernode` is the front the rank would
  /// resume at, `perturbations` its pivot-boost count so far.
  void front_complete(index_t next_supernode, count_t perturbations);

 private:
  void append(const void* data, std::size_t bytes);

  mpsim::Comm& comm_;
  ResiliencePolicy policy_;
  int buddy_ = 0;
  index_t fronts_since_save_ = 0;
  std::vector<std::byte> pending_;
};

/// Validates a ResiliencePolicy (checkpoint_interval >= 1), raising
/// StatusError(kInvalidInput) otherwise.
void validate_resilience_policy(const ResiliencePolicy& policy);

}  // namespace parfact
