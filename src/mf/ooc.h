// Out-of-core factorization — the WSMP-lineage mode for problems whose
// factor exceeds memory: each supernode panel is streamed to a scratch file
// the moment it is eliminated, so resident memory holds only the active
// front and the multifrontal update stack. The triangular solves stream the
// panels back (forward sweep reads the file front-to-back, backward sweep
// back-to-front).
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "dense/matrix_view.h"
#include "mf/factor.h"
#include "mf/multifrontal.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

/// Disk-backed supernodal Cholesky factor. Panel layout on disk matches
/// CholeskyFactor's in-memory layout (column-major trapezoid per supernode,
/// concatenated in supernode order). The scratch file is deleted on
/// destruction.
///
/// Integrity: every panel write records a 64-bit FNV-1a checksum in memory;
/// every read-back verifies it, retrying the read once (transient I/O) and
/// then throwing StatusError(kDataCorruption). The checksums live in memory
/// rather than on disk because they guard the scratch file's round-trip
/// within one process lifetime — the file does not outlive the object.
class OocCholeskyFactor {
 public:
  /// Creates/truncates the scratch file. `sym` must outlive this object.
  OocCholeskyFactor(const SymbolicFactor& sym, std::string path);
  ~OocCholeskyFactor();

  OocCholeskyFactor(const OocCholeskyFactor&) = delete;
  OocCholeskyFactor& operator=(const OocCholeskyFactor&) = delete;
  OocCholeskyFactor(OocCholeskyFactor&& other) noexcept;
  OocCholeskyFactor& operator=(OocCholeskyFactor&& other) noexcept;

  [[nodiscard]] const SymbolicFactor& symbolic() const { return *sym_; }
  [[nodiscard]] count_t bytes_on_disk() const;
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Writes supernode s's panel (front_order x sn_cols) to its file slot,
  /// recording its checksum. Flushes so the bytes are externally visible.
  void write_panel(index_t s, ConstMatrixView panel);
  /// Reads supernode s's panel into `out` (same shape, ld == rows) and
  /// verifies its checksum; one silent re-read on mismatch, then throws
  /// StatusError with StatusCode::kDataCorruption.
  void read_panel(index_t s, MatrixView out) const;

  /// LDLᵀ support, mirroring CholeskyFactor: panels on disk hold the
  /// unit-diagonal L while D stays resident (n doubles — negligible next to
  /// the spilled panels).
  [[nodiscard]] bool is_ldlt() const { return !d_.empty(); }
  [[nodiscard]] std::span<const real_t> diag() const { return d_; }
  std::span<real_t> allocate_diag();

 private:
  const SymbolicFactor* sym_;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<real_t> d_;        ///< LDLᵀ diagonal (resident)
  std::vector<count_t> offset_;  ///< per-supernode byte offset
  std::vector<std::uint64_t> checksum_;  ///< per-supernode FNV-1a of panel
};

/// Out-of-core serial multifrontal factorization (Cholesky or LDLᵀ): the
/// serial driver with the spill-file panel destination, so the spilled
/// panels are bitwise identical to multifrontal_factor's.
/// `stats->peak_update_bytes` reports the resident peak — update stack plus
/// the one streamed panel buffer — the number that stays small while the
/// factor itself goes to disk. Polls `cancel` once per supernode.
[[nodiscard]] OocCholeskyFactor multifrontal_factor_ooc(
    const SymbolicFactor& sym, const std::string& path,
    FactorStats* stats = nullptr, PivotPolicy pivot = {},
    FactorKind kind = FactorKind::kCholesky, CancelToken cancel = {});

/// x := A⁻¹ x with panels streamed from disk (x is n x nrhs).
void ooc_solve_in_place(const OocCholeskyFactor& factor, MatrixView x);

}  // namespace parfact
