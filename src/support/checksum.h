// Shared integrity primitives for the corruption-defense layer.
//
// Three families live here. `bulk_digest` guards *stored or transmitted*
// bytes (OOC panels, checkpoint blobs, mpsim wire payloads): a word-wise,
// four-lane digest whose every step is a bijection, so any single changed
// 8-byte word — every single-bit flip included — provably changes the
// digest, at memory-bandwidth speed. `fnv1a` is the byte-serial hash kept
// for small keyed digests (the symbolic-cache pattern key, configuration
// hashes, ordering fingerprints), where its chaining seed is what callers
// want and speed does not matter. The ABFT helpers guard *computed*
// numbers, where a hash is useless because the bits legitimately change:
// Huang-Abraham column-sum identities relate kernel outputs to inputs
// through the same linear algebra the kernel performs, so a corrupted
// output breaks the identity by far more than rounding ever can. The
// mismatch predicate and the bit-flip injectors used by the fault
// campaigns are here too, so every module agrees on one tolerance rule
// and one flip encoding.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "support/types.h"

namespace parfact {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// Digest of a bulk byte range (stored or transmitted payloads). Words are
/// read little-endian from any alignment, four lanes wide: lane k takes
/// words k, k+4, k+8, ... through acc = rotl(acc + w·P2, 31)·P1, which is a
/// bijection in `acc` for a fixed word and in the word for a fixed `acc`.
/// The lanes merge as mix(mix(mix(mix(v0) ^ v1) ^ v2) ^ v3) with a
/// bijective `mix`, so the result is injective in each lane; the length,
/// the last 0–3 words and the 0–7 tail bytes (zero-padded into one word)
/// then fold in through the same bijective steps. Hence, for a fixed
/// length, changing any one word changes the digest — a guarantee, not a
/// probability. Multi-word changes (and dropped, duplicated or swapped
/// words) are caught with the usual 2⁻⁶⁴ odds. The value depends only on
/// the bytes, so digests agree across processes on little-endian hosts.
[[nodiscard]] std::uint64_t bulk_digest(const void* data, std::size_t bytes);

/// FNV-1a over a byte range. `seed` lets callers chain ranges into one
/// rolling digest (pass the previous digest back in).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t seed = kFnv1aOffsetBasis);

/// Chains one trivially-copyable value into a rolling FNV-1a digest — the
/// building block for configuration digests (e.g. the symbolic-cache
/// pattern key hashes every ordering/amalgamation knob this way, so two
/// solvers only share an analysis when every structure-affecting option
/// matches).
template <class T>
[[nodiscard]] std::uint64_t fnv1a_pod(const T& value,
                                      std::uint64_t seed = kFnv1aOffsetBasis) {
  static_assert(std::is_trivially_copyable_v<T>,
                "fnv1a_pod hashes raw object bytes");
  return fnv1a(&value, sizeof value, seed);
}

/// ABFT acceptance test: does `actual` match `predicted` to within
/// `tol * (scale + 1)`, where `scale` is the absolute-value counterpart of
/// the predicted sum? Written so NaN/Inf on either side count as a
/// mismatch (an exponent-bit flip often lands there).
[[nodiscard]] inline bool abft_mismatch(real_t actual, real_t predicted,
                                        real_t scale, real_t tol) {
  const real_t diff = std::abs(actual - predicted);
  return !(diff <= tol * (scale + real_t{1}));
}

/// Returns `value` with one bit of its IEEE-754 representation flipped.
/// Bit 62 (the top exponent bit) is the canonical worst case: it turns
/// O(1) values into ~1e308 or Inf/NaN and is always detectable.
[[nodiscard]] real_t flip_bit(real_t value, int bit);

/// Flips one bit inside an arbitrary byte buffer; `word` selects an
/// 8-byte word (wrapped to the buffer size), `bit` a bit within it.
/// No-op on an empty buffer.
void flip_bit_in_bytes(void* data, std::size_t bytes, std::uint64_t word,
                       int bit);

}  // namespace parfact
