// Out-of-core factorization — the WSMP-lineage mode for problems whose
// factor exceeds memory: each supernode panel is streamed to a scratch file
// the moment it is eliminated, so resident memory holds only the active
// front and the multifrontal update stack. The triangular solves are the
// one schedule-driven engine of solve/solve.h, fed by read_panel: per RHS
// block the forward sweep reads the file front-to-back and the backward
// sweep back-to-front, and the answer is bitwise the resident factor's.
// The same file format also holds a whole resident factor evicted by
// Solver::spill_factor(): the file layout is CholeskyFactor's own, so that
// direction is one positioned write and one positioned read.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dense/matrix_view.h"
#include "mf/factor.h"
#include "mf/multifrontal.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

/// Disk-backed supernodal Cholesky factor. Panel layout on disk matches
/// CholeskyFactor's in-memory layout byte for byte (column-major full
/// panel per supernode, concatenated in supernode order). The file is
/// accessed through a POSIX descriptor with pwrite/pread — no user-space
/// buffer, so a read sees exactly the bytes other processes see — and is
/// deleted on destruction. Two live objects must not share one path: the
/// first one destroyed deletes the other's file.
///
/// Integrity: every panel write records the panel's bulk_digest in memory;
/// every read-back verifies every panel it reads. A read that stays short
/// or a digest mismatch gets one re-read (transient I/O), then
/// StatusError(kDataCorruption) naming the first bad supernode. The digests
/// live in memory rather than on disk because they guard the scratch
/// file's round-trip within one process lifetime — the file does not
/// outlive the object.
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
  /// recording its digest. The bytes are visible to other readers of the
  /// file as soon as this returns.
  void write_panel(index_t s, ConstMatrixView panel);
  /// Reads supernode s's panel into `out` (same shape, ld == rows) and
  /// verifies its digest; one silent re-read on a short read or mismatch,
  /// then throws StatusError with StatusCode::kDataCorruption.
  void read_panel(index_t s, MatrixView out) const;

  /// Whole-factor transfers for an in-core factor of the same symbolic
  /// structure (the LDLᵀ diagonal is the caller's to copy).
  /// write_factor writes every panel with one positioned write and records
  /// every panel's digest, rewriting the file in place.
  void write_factor(const CholeskyFactor& factor);
  /// True when every panel of `factor` digests to what the file was last
  /// written with, so writing it again would store the same bytes.
  [[nodiscard]] bool matches(const CholeskyFactor& factor) const;
  /// Reads the whole file into `out` with one positioned read and verifies
  /// every panel's digest, with read_panel's retry and failure rules.
  void read_factor(CholeskyFactor& out) const;

  /// LDLᵀ support, mirroring CholeskyFactor: panels on disk hold the
  /// unit-diagonal L while D stays resident (n doubles — negligible next to
  /// the spilled panels).
  [[nodiscard]] bool is_ldlt() const { return !d_.empty(); }
  [[nodiscard]] std::span<const real_t> diag() const { return d_; }
  std::span<real_t> allocate_diag();

 private:
  /// Digest of supernode s's panel inside `base`, a whole factor image.
  [[nodiscard]] std::uint64_t panel_digest(const real_t* base,
                                           index_t s) const;
  /// First panel in [0, valid_bytes) of `base` (a whole factor image)
  /// that is missing or fails its digest; kNone when all are intact.
  [[nodiscard]] index_t first_bad_panel(const real_t* base,
                                        std::size_t valid_bytes) const;
  [[noreturn]] void throw_corrupt(index_t s, bool short_read) const;

  const SymbolicFactor* sym_;
  std::string path_;
  int fd_ = -1;
  std::vector<real_t> d_;        ///< LDLᵀ diagonal (resident)
  std::vector<count_t> offset_;  ///< per-supernode byte offset
  std::vector<std::uint64_t> checksum_;  ///< per-supernode panel digest
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

}  // namespace parfact
