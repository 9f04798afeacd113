// Panel packing for the register-tiled dense kernel engine.
//
// The engine (microkernel.h) multiplies packed operands only: before the
// macro-kernel runs, a logical m×k left operand is repacked into contiguous
// row panels of the tile's MR rows and a logical n×k right operand into row
// panels of its NR rows, both k-major inside the panel and zero-padded to
// the full panel height. Packing costs O(d·k) against the O(m·n·k) multiply
// and buys the micro-kernel unit-stride, cache-resident loads regardless of
// the source leading dimension.
//
// The panel height is a template argument, and both routines inline into
// the engine's per-ISA instantiations, so each tile's packing is compiled
// for the same ISA as its micro-kernel.
#pragma once

#include <algorithm>
#include <cstddef>

#include "dense/matrix_view.h"
#include "support/types.h"

namespace parfact::detail {

/// Packs `src` (logical D×K) into panels of R rows: panel p holds rows
/// [p·R, (p+1)·R) for all K columns, laid out k-major (the R entries of one
/// k are contiguous), with rows beyond D zero-padded. `dst` must hold
/// ceil(D/R)·R·K reals.
template <index_t R>
__attribute__((always_inline)) inline void pack_panels(real_t* dst,
                                                       ConstMatrixView src) {
  const index_t d = src.rows;
  const index_t kk = src.cols;
  const std::size_t ld = static_cast<std::size_t>(src.ld);
  for (index_t p = 0; p < d; p += R) {
    const index_t pr = std::min(R, d - p);
    const real_t* col = src.data + p;  // contiguous down each source column
    for (index_t k = 0; k < kk; ++k, col += ld, dst += R) {
      if (pr == R) {
        for (index_t i = 0; i < R; ++i) dst[i] = col[i];
      } else {
        index_t i = 0;
        for (; i < pr; ++i) dst[i] = col[i];
        for (; i < R; ++i) dst[i] = 0.0;
      }
    }
  }
}

/// Same, but `src` is stored transposed (K×D) and its transpose is packed.
template <index_t R>
__attribute__((always_inline)) inline void pack_panels_trans(
    real_t* dst, ConstMatrixView src) {
  const index_t d = src.cols;  // logical rows = stored columns
  const index_t kk = src.rows;
  const std::size_t ld = static_cast<std::size_t>(src.ld);
  for (index_t p = 0; p < d; p += R) {
    const index_t pr = std::min(R, d - p);
    // Walk source columns (contiguous in k) and scatter into the panel at
    // stride R; this keeps the reads unit-stride.
    for (index_t i = 0; i < pr; ++i) {
      const real_t* col = src.data + static_cast<std::size_t>(p + i) * ld;
      for (index_t k = 0; k < kk; ++k) {
        dst[static_cast<std::size_t>(k) * R + i] = col[k];
      }
    }
    for (index_t i = pr; i < R; ++i) {
      for (index_t k = 0; k < kk; ++k) {
        dst[static_cast<std::size_t>(k) * R + i] = 0.0;
      }
    }
    dst += static_cast<std::size_t>(R) * kk;
  }
}

}  // namespace parfact::detail
