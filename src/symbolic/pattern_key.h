// Canonical sparsity-pattern identity for symbolic-analysis reuse.
//
// The serving loop the HYLU line of work is built around — factor once,
// then re-factor the *same pattern* with new values as the simulation or
// optimization iterates — makes the ordering + symbolic phase fully
// redundant after the first hit. To reuse an analysis safely across
// matrices (and across sessions of the SolverService) we need a key that
// identifies exactly what the analyze phase consumed: the CSR/CSC
// *structure* of the lower triangle (values excluded) plus every
// configuration knob that can change the resulting ordering, supernode
// partition, or postorder.
//
// The key is an FNV-1a digest over the col_ptr and row_ind arrays
// (support/checksum — the same primitive that guards OOC panels and wire
// payloads), guarded against collisions by carrying n and nnz verbatim:
// two patterns that collide in the 64-bit hash still miss unless they also
// agree on both exact sizes. Keys are compared only within one process
// (the cache is in-memory), so index-type width and endianness need no
// canonicalization.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sparse/sparse_matrix.h"
#include "support/types.h"

namespace parfact {

struct PatternKey {
  std::uint64_t structure_hash = 0;  ///< FNV-1a over col_ptr then row_ind
  std::uint64_t config_hash = 0;     ///< digest of structure-affecting options
  index_t n = 0;                     ///< collision guard: exact order
  count_t nnz = 0;                   ///< collision guard: exact lower nnz
  bool operator==(const PatternKey&) const = default;
};

/// Hash functor for unordered containers keyed by PatternKey.
struct PatternKeyHash {
  [[nodiscard]] std::size_t operator()(const PatternKey& k) const;
};

/// Computes the pattern key of a lower-stored symmetric matrix.
/// `config_hash` is the caller's digest of every option that affects the
/// symbolic result (ordering kind and knobs, amalgamation); chain it with
/// fnv1a_pod from support/checksum.
[[nodiscard]] PatternKey pattern_key(const SparseMatrix& lower,
                                     std::uint64_t config_hash = 0);

}  // namespace parfact
