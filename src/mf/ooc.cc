#include "mf/ooc.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <sstream>
#include <utility>

#include "mf/front_kernel.h"
#include "support/checksum.h"
#include "support/error.h"
#include "support/status.h"

// Panels are guarded by support/checksum's bulk_digest: it runs at memory
// bandwidth, far below the cost of the I/O it protects, and any single
// changed word — every single-bit flip included — is guaranteed to change
// it. Dropped, duplicated or reordered data changes it with 2⁻⁶⁴ odds of a
// miss, not with certainty.

namespace parfact {
namespace {

/// pwrite until all `bytes` are written; false on an I/O error.
bool write_at(int fd, const void* data, std::size_t bytes, off_t offset) {
  const auto* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::pwrite(fd, p, bytes, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<std::size_t>(n);
    offset += n;
  }
  return true;
}

/// pread until `bytes` are read; returns the bytes read, which is short
/// only at end of file or on an I/O error.
std::size_t read_at(int fd, void* data, std::size_t bytes, off_t offset) {
  auto* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n = ::pread(fd, p + done, bytes - done,
                              offset + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  return done;
}

}  // namespace

OocCholeskyFactor::OocCholeskyFactor(const SymbolicFactor& sym,
                                     std::string path)
    : sym_(&sym), path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  PARFACT_CHECK_MSG(fd_ >= 0, "cannot create scratch file " << path_);
  offset_.resize(static_cast<std::size_t>(sym.n_supernodes) + 1);
  checksum_.assign(static_cast<std::size_t>(sym.n_supernodes), 0);
  offset_[0] = 0;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const count_t panel_bytes = static_cast<count_t>(sym.front_order(s)) *
                                sym.sn_cols(s) *
                                static_cast<count_t>(sizeof(real_t));
    offset_[s + 1] = offset_[s] + panel_bytes;
  }
}

OocCholeskyFactor::~OocCholeskyFactor() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

OocCholeskyFactor::OocCholeskyFactor(OocCholeskyFactor&& other) noexcept
    : sym_(other.sym_),
      path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      d_(std::move(other.d_)),
      offset_(std::move(other.offset_)),
      checksum_(std::move(other.checksum_)) {}

OocCholeskyFactor& OocCholeskyFactor::operator=(
    OocCholeskyFactor&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
  sym_ = other.sym_;
  path_ = std::move(other.path_);
  fd_ = std::exchange(other.fd_, -1);
  d_ = std::move(other.d_);
  offset_ = std::move(other.offset_);
  checksum_ = std::move(other.checksum_);
  return *this;
}

std::span<real_t> OocCholeskyFactor::allocate_diag() {
  d_.assign(static_cast<std::size_t>(sym_->n), 0.0);
  return d_;
}

count_t OocCholeskyFactor::bytes_on_disk() const { return offset_.back(); }

void OocCholeskyFactor::write_panel(index_t s, ConstMatrixView panel) {
  PARFACT_CHECK(panel.rows == sym_->front_order(s) &&
                panel.cols == sym_->sn_cols(s) && panel.ld == panel.rows);
  const std::size_t bytes =
      static_cast<std::size_t>(panel.rows) * panel.cols * sizeof(real_t);
  PARFACT_CHECK_MSG(
      write_at(fd_, panel.data, bytes, static_cast<off_t>(offset_[s])),
      "short write to " << path_);
  checksum_[s] = bulk_digest(panel.data, bytes);
}

void OocCholeskyFactor::read_panel(index_t s, MatrixView out) const {
  PARFACT_CHECK(out.rows == sym_->front_order(s) &&
                out.cols == sym_->sn_cols(s) && out.ld == out.rows);
  const std::size_t bytes =
      static_cast<std::size_t>(out.rows) * out.cols * sizeof(real_t);
  // One silent retry covers a transient short/failed read; a digest that
  // is still wrong after re-reading means the bytes on disk are damaged.
  bool short_read = false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    short_read = read_at(fd_, out.data, bytes,
                         static_cast<off_t>(offset_[s])) != bytes;
    if (!short_read && bulk_digest(out.data, bytes) == checksum_[s]) return;
  }
  throw_corrupt(s, short_read);
}

void OocCholeskyFactor::write_factor(const CholeskyFactor& factor) {
  const std::span<const real_t> values = factor.values();
  PARFACT_CHECK(static_cast<count_t>(values.size_bytes()) == bytes_on_disk());
  PARFACT_CHECK_MSG(write_at(fd_, values.data(), values.size_bytes(), 0),
                    "short write to " << path_);
  for (index_t s = 0; s < sym_->n_supernodes; ++s) {
    checksum_[s] = panel_digest(values.data(), s);
  }
}

bool OocCholeskyFactor::matches(const CholeskyFactor& factor) const {
  const std::span<const real_t> values = factor.values();
  PARFACT_CHECK(static_cast<count_t>(values.size_bytes()) == bytes_on_disk());
  return first_bad_panel(values.data(), values.size_bytes()) == kNone;
}

void OocCholeskyFactor::read_factor(CholeskyFactor& out) const {
  const std::span<real_t> values = out.values();
  PARFACT_CHECK(static_cast<count_t>(values.size_bytes()) == bytes_on_disk());
  std::size_t got = 0;
  index_t bad = kNone;
  for (int attempt = 0; attempt < 2; ++attempt) {
    got = read_at(fd_, values.data(), values.size_bytes(), 0);
    bad = first_bad_panel(values.data(), got);
    if (bad == kNone) return;
  }
  throw_corrupt(bad, static_cast<std::size_t>(offset_[bad + 1]) > got);
}

std::uint64_t OocCholeskyFactor::panel_digest(const real_t* base,
                                              index_t s) const {
  return bulk_digest(base + offset_[s] / static_cast<count_t>(sizeof(real_t)),
                     static_cast<std::size_t>(offset_[s + 1] - offset_[s]));
}

index_t OocCholeskyFactor::first_bad_panel(const real_t* base,
                                           std::size_t valid_bytes) const {
  for (index_t s = 0; s < sym_->n_supernodes; ++s) {
    if (static_cast<std::size_t>(offset_[s + 1]) > valid_bytes ||
        panel_digest(base, s) != checksum_[s]) {
      return s;
    }
  }
  return kNone;
}

void OocCholeskyFactor::throw_corrupt(index_t s, bool short_read) const {
  std::ostringstream os;
  os << (short_read ? "short read (file truncated?)" : "checksum mismatch")
     << " reading panel of supernode " << s << " from " << path_
     << " (after one re-read retry)";
  throw StatusError(
      Status::failure(StatusCode::kDataCorruption, os.str(), s));
}

OocCholeskyFactor multifrontal_factor_ooc(const SymbolicFactor& sym,
                                          const std::string& path,
                                          FactorStats* stats,
                                          PivotPolicy pivot, FactorKind kind,
                                          CancelToken cancel) {
  OocCholeskyFactor factor(sym, path);
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = factor.allocate_diag();
  detail::factor_serial(sym, {.spill = &factor}, kind, d, pivot, stats,
                        std::move(cancel));
  return factor;
}

}  // namespace parfact
