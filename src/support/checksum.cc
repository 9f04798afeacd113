#include "support/checksum.h"

#include <bit>
#include <cstring>

namespace parfact {
namespace {

// The xxHash64 primes: odd, so multiplying by either is a bijection.
constexpr std::uint64_t kDigestP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kDigestP2 = 0xC2B2AE3D27D4EB4Full;

std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// One lane step: a bijection in `acc` for a fixed `w` and in `w` for a
/// fixed `acc` (odd multipliers, and a rotation only permutes bits).
std::uint64_t lane_round(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * kDigestP2, 31) * kDigestP1;
}

/// Bijective avalanche (the MurmurHash3 finalizer): each xorshift and each
/// odd multiply is invertible.
std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::uint64_t bulk_digest(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t v0 = kDigestP1 + kDigestP2;
  std::uint64_t v1 = kDigestP2;
  std::uint64_t v2 = 0;
  std::uint64_t v3 = 0 - kDigestP1;
  for (std::size_t i = bytes / 32; i > 0; --i, p += 32) {
    v0 = lane_round(v0, load_word(p));
    v1 = lane_round(v1, load_word(p + 8));
    v2 = lane_round(v2, load_word(p + 16));
    v3 = lane_round(v3, load_word(p + 24));
  }
  // Injective in each lane: every step below is a bijection of `h` for
  // fixed other inputs, and of the word it folds in for a fixed `h`.
  std::uint64_t h = mix(mix(mix(mix(v0) ^ v1) ^ v2) ^ v3);
  h = mix(h ^ static_cast<std::uint64_t>(bytes));
  std::size_t rest = bytes % 32;
  for (; rest >= 8; rest -= 8, p += 8) h = lane_round(h, load_word(p));
  if (rest > 0) {
    std::uint64_t tail = 0;  // zero-padded: injective for a fixed length
    std::memcpy(&tail, p, rest);
    h = lane_round(h, tail);
  }
  return mix(h);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

real_t flip_bit(real_t value, int bit) {
  static_assert(sizeof(real_t) == sizeof(std::uint64_t));
  std::uint64_t u = 0;
  std::memcpy(&u, &value, sizeof(u));
  u ^= std::uint64_t{1} << (bit & 63);
  std::memcpy(&value, &u, sizeof(u));
  return value;
}

void flip_bit_in_bytes(void* data, std::size_t bytes, std::uint64_t word,
                       int bit) {
  if (bytes == 0) return;
  bit &= 63;
  const std::size_t words = bytes / 8;
  std::size_t byte;
  if (words > 0) {
    byte = static_cast<std::size_t>(word % words) * 8 +
           static_cast<std::size_t>(bit / 8);
    if (byte >= bytes) byte = bytes - 1;
  } else {
    byte = static_cast<std::size_t>(bit / 8) % bytes;
  }
  static_cast<unsigned char*>(data)[byte] ^=
      static_cast<unsigned char>(1u << (bit % 8));
}

}  // namespace parfact
