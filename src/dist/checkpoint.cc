#include "dist/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include "support/checksum.h"
#include "support/error.h"

namespace parfact {

namespace {

constexpr std::uint64_t kCheckpointMagic = 0x70666b70'74763031ull;  // "pfkptv01"

/// Fixed-layout blob prefix. The checksum covers the payload bytes only;
/// header fields are validated structurally (magic, sizes).
struct BlobHeader {
  std::uint64_t magic;
  std::int64_t next_supernode;
  std::int64_t perturbations;
  std::uint64_t payload_bytes;
  std::uint64_t payload_checksum;
};

[[noreturn]] void corrupt(const std::string& what) {
  throw StatusError(Status::failure(StatusCode::kDataCorruption,
                                    "checkpoint blob: " + what));
}

}  // namespace

std::vector<std::byte> encode_checkpoint(const CheckpointImage& image,
                                         const std::vector<std::byte>& payload) {
  BlobHeader header;
  header.magic = kCheckpointMagic;
  header.next_supernode = image.next_supernode;
  header.perturbations = image.perturbations;
  header.payload_bytes = payload.size();
  header.payload_checksum = bulk_digest(payload.data(), payload.size());
  std::vector<std::byte> blob(sizeof(BlobHeader) + payload.size());
  std::memcpy(blob.data(), &header, sizeof header);
  if (!payload.empty()) {
    std::memcpy(blob.data() + sizeof header, payload.data(), payload.size());
  }
  return blob;
}

CheckpointImage decode_checkpoint(const std::vector<std::byte>& blob) {
  if (blob.empty()) return CheckpointImage{};  // never checkpointed
  if (blob.size() < sizeof(BlobHeader)) corrupt("shorter than its header");
  BlobHeader header;
  std::memcpy(&header, blob.data(), sizeof header);
  if (header.magic != kCheckpointMagic) corrupt("bad magic");
  if (header.payload_bytes != blob.size() - sizeof header) {
    corrupt("payload size disagrees with blob size");
  }
  if (header.payload_checksum !=
      bulk_digest(blob.data() + sizeof header, blob.size() - sizeof header)) {
    corrupt("payload checksum mismatch");
  }
  if (header.next_supernode < 0 || header.perturbations < 0) {
    corrupt("negative header field");
  }
  CheckpointImage image;
  image.next_supernode = static_cast<index_t>(header.next_supernode);
  image.perturbations = static_cast<count_t>(header.perturbations);
  return image;
}

BuddyCheckpointer::BuddyCheckpointer(mpsim::Comm& comm,
                                     const ResiliencePolicy& policy)
    : comm_(comm), policy_(policy) {
  // Ring-partner scheme: rank r's checkpoints live on rank (r + 1) mod P,
  // so one crash never takes a rank and its checkpoint down together.
  buddy_ = (comm.rank() + 1) % comm.size();
}

void BuddyCheckpointer::append(const void* data, std::size_t bytes) {
  if (!enabled() || bytes == 0) return;
  const std::size_t old = pending_.size();
  pending_.resize(old + bytes);
  std::memcpy(pending_.data() + old, data, bytes);
}

void BuddyCheckpointer::note_panel(const void* data, std::size_t bytes) {
  append(data, bytes);
}

void BuddyCheckpointer::note_contribution(const void* data,
                                          std::size_t bytes) {
  append(data, bytes);
}

void BuddyCheckpointer::front_complete(index_t next_supernode,
                                       count_t perturbations) {
  if (!enabled()) return;
  if (++fronts_since_save_ < policy_.checkpoint_interval) return;
  fronts_since_save_ = 0;
  CheckpointImage image;
  image.next_supernode = next_supernode;
  image.perturbations = perturbations;
  std::vector<std::byte> blob = encode_checkpoint(image, pending_);
  pending_.clear();
  if (policy_.spill_to_scratch) {
    // Round-trip the blob through node-local scratch before shipping, with
    // the OOC writer's verify-on-read discipline: a torn spill must surface
    // as kDataCorruption, never as a silently wrong restore.
    namespace fs = std::filesystem;
    const fs::path dir = policy_.scratch_dir.empty()
                             ? fs::temp_directory_path()
                             : fs::path(policy_.scratch_dir);
    std::ostringstream name;
    name << "parfact_ckpt_rank" << comm_.rank() << ".bin";
    const fs::path path = dir / name.str();
    {
      std::FILE* f = std::fopen(path.string().c_str(), "wb");
      PARFACT_CHECK_MSG(f != nullptr, "checkpoint scratch open failed");
      const std::size_t wrote =
          blob.empty() ? 0 : std::fwrite(blob.data(), 1, blob.size(), f);
      std::fflush(f);
      std::fclose(f);
      if (wrote != blob.size()) {
        std::error_code ec;
        fs::remove(path, ec);
        corrupt("scratch spill wrote short");
      }
    }
    std::vector<std::byte> readback(blob.size());
    {
      std::FILE* f = std::fopen(path.string().c_str(), "rb");
      PARFACT_CHECK_MSG(f != nullptr, "checkpoint scratch reopen failed");
      const std::size_t got =
          readback.empty() ? 0
                           : std::fread(readback.data(), 1, readback.size(), f);
      std::fclose(f);
      std::error_code ec;
      fs::remove(path, ec);
      if (got != readback.size()) corrupt("scratch spill read short");
    }
    (void)decode_checkpoint(readback);  // checksum + structure verification
    blob = std::move(readback);
  }
  comm_.checkpoint_save(buddy_, std::move(blob));
}

void validate_resilience_policy(const ResiliencePolicy& policy) {
  if (policy.checkpoint_interval < 1) {
    throw StatusError(Status::failure(
        StatusCode::kInvalidInput,
        "ResiliencePolicy: checkpoint_interval must be >= 1"));
  }
}

}  // namespace parfact
