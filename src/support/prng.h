// Deterministic pseudo-random number generation.
//
// Tests, generators and benchmarks must be reproducible across runs and
// platforms, so we ship our own xoshiro256** generator seeded via splitmix64
// rather than relying on implementation-defined std::default_random_engine.
#pragma once

#include <cstdint>

#include "support/types.h"

namespace parfact {

/// splitmix64 finalizer: a bijective scrambler of one 64-bit word. The
/// seeding of Prng below, and the fault dice and injection targets that
/// must be pure functions of their seeds, all run through it.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna), seeded through splitmix64 so that any
/// 64-bit seed — including 0 — yields a well-mixed state.
class Prng {
 public:
  explicit Prng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // The splitmix64 stream: word i is mix64(seed + i * golden ratio).
    for (auto& word : state_) {
      word = mix64(seed);
      seed += 0x9e3779b97f4a7c15ull;
    }
  }

  /// Uniform 64-bit word.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's multiply-shift rejection method: unbiased and fast.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform index in [0, bound).
  index_t next_index(index_t bound) {
    return static_cast<index_t>(next_below(static_cast<std::uint64_t>(bound)));
  }

  /// Uniform real in [0, 1).
  double next_real() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in [lo, hi).
  double next_real(double lo, double hi) {
    return lo + (hi - lo) * next_real();
  }

  /// Random sign: +1.0 or -1.0 with equal probability.
  double next_sign() { return (next_u64() & 1u) ? 1.0 : -1.0; }

 private:
  static std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace parfact
