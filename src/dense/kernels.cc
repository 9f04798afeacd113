#include "dense/kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dense/microkernel.h"
#include "support/error.h"
#include "support/prng.h"
#include "support/timer.h"

namespace parfact {
namespace {

/// Outer block size of the blocked POTRF (trailing updates run on the
/// packed engine, so a large block amortizes the diagonal factorization).
constexpr index_t kPotrfBlock = 128;

/// At or below this order the Cholesky runs unblocked.
constexpr index_t kPotrfUnblocked = 32;

/// Column-block size of the blocked right-TRSM.
constexpr index_t kTrsmBlock = 64;

/// The packed engine pays O(n·k + m·k) packing traffic; below this n·k
/// work product (vector-shaped or tiny updates) the unpacked loops win.
/// Deliberately independent of m so that splitting C's rows across threads
/// never changes which path an element takes.
constexpr count_t kEngineMinWork = 1024;

bool use_engine(index_t n_logical, index_t k) {
  return static_cast<count_t>(n_logical) * k >= kEngineMinWork;
}

index_t potrf_lower_blocked(MatrixView a, index_t nb, PivotBoost* boost) {
  const index_t n = a.rows;
  if (n <= kPotrfUnblocked) return detail::potrf_lower_unblocked(a, boost);
  for (index_t k = 0; k < n; k += nb) {
    const index_t cb = std::min(nb, n - k);
    MatrixView akk = a.block(k, k, cb, cb);
    const index_t info =
        cb <= kPotrfUnblocked
            ? detail::potrf_lower_unblocked(akk, boost)
            : potrf_lower_blocked(akk, kPotrfUnblocked, boost);
    if (info != kNone) return k + info;
    const index_t rest = n - k - cb;
    if (rest == 0) continue;
    MatrixView panel = a.block(k + cb, k, rest, cb);
    trsm_right_lower_trans(akk, panel);
    syrk_lower_update(a.block(k + cb, k + cb, rest, rest), panel);
  }
  return kNone;
}

}  // namespace

index_t ldlt_lower(MatrixView a, std::span<real_t> d, PivotBoost* boost) {
  PARFACT_CHECK(a.rows == a.cols);
  PARFACT_CHECK(static_cast<index_t>(d.size()) == a.rows);
  const index_t n = a.rows;
  // Blocked variant is unnecessary here: fronts call this only on panel
  // diagonal blocks (<= a few hundred columns); a cache-friendly kij loop
  // suffices.
  for (index_t k = 0; k < n; ++k) {
    real_t dk = a.at(k, k);
    if (!std::isfinite(dk)) return k;
    if (dk == 0.0 || (boost != nullptr && std::abs(dk) <= boost->threshold)) {
      if (boost == nullptr) return k;
      // Sign-preserving boost keeps the inertia of quasi-definite inputs.
      dk = dk < 0.0 ? -boost->value : boost->value;
      ++boost->count;
    }
    d[k] = dk;
    a.at(k, k) = 1.0;
    const real_t inv = 1.0 / dk;
    for (index_t i = k + 1; i < n; ++i) a.at(i, k) *= inv;
    for (index_t j = k + 1; j < n; ++j) {
      const real_t w = a.at(j, k) * dk;  // original A(j,k) value
      if (w == 0.0) continue;
      for (index_t i = j; i < n; ++i) a.at(i, j) -= a.at(i, k) * w;
    }
  }
  return kNone;
}

index_t potrf_lower(MatrixView a, PivotBoost* boost) {
  PARFACT_CHECK(a.rows == a.cols);
  return potrf_lower_blocked(a, kPotrfBlock, boost);
}

void trsm_right_lower_trans(ConstMatrixView l, MatrixView b) {
  PARFACT_CHECK(l.rows == l.cols && b.cols == l.rows);
  const index_t n = l.rows;
  const index_t m = b.rows;
  if (n <= kTrsmBlock) {
    detail::trsm_right_lower_trans_unblocked(l, b);
    return;
  }
  // Left-looking column blocks: fold all already-solved columns into block
  // j0 with one engine GEMM, then solve the diagonal block unblocked.
  for (index_t j0 = 0; j0 < n; j0 += kTrsmBlock) {
    const index_t jb = std::min(kTrsmBlock, n - j0);
    MatrixView bj = b.block(0, j0, m, jb);
    if (j0 > 0) {
      gemm_nt_update(bj, b.block(0, 0, m, j0), l.block(j0, 0, jb, j0));
    }
    detail::trsm_right_lower_trans_unblocked(l.block(j0, j0, jb, jb), bj);
  }
}

namespace {

void trsm_left_lower_unblocked(ConstMatrixView l, MatrixView x) {
  const index_t n = l.rows;
  for (index_t c = 0; c < x.cols; ++c) {
    real_t* xc = &x.at(0, c);
    for (index_t k = 0; k < n; ++k) {
      const real_t xk = xc[k] / l.at(k, k);
      xc[k] = xk;
      if (xk == 0.0) continue;
      const real_t* lk = &l.at(0, k);
      for (index_t i = k + 1; i < n; ++i) xc[i] -= lk[i] * xk;
    }
  }
}

void trsm_left_lower_trans_unblocked(ConstMatrixView l, MatrixView x) {
  const index_t n = l.rows;
  for (index_t c = 0; c < x.cols; ++c) {
    real_t* xc = &x.at(0, c);
    for (index_t k = n - 1; k >= 0; --k) {
      const real_t* lk = &l.at(0, k);
      real_t acc = xc[k];
      for (index_t i = k + 1; i < n; ++i) acc -= lk[i] * xc[i];
      xc[k] = acc / l.at(k, k);
    }
  }
}

}  // namespace

// Multi-column left-TRSMs are blocked so the off-diagonal bulk runs on the
// packed gemm engine and the triangle is streamed once per diagonal block
// instead of once per column. Single-column (and narrow) solves take the
// unblocked path — there the packing traffic would dominate.
void trsm_left_lower(ConstMatrixView l, MatrixView x) {
  PARFACT_CHECK(l.rows == l.cols && x.rows == l.rows);
  const index_t n = l.rows;
  const index_t w = x.cols;
  if (n <= kTrsmBlock || !use_engine(w, kTrsmBlock)) {
    trsm_left_lower_unblocked(l, x);
    return;
  }
  for (index_t k0 = 0; k0 < n; k0 += kTrsmBlock) {
    const index_t k1 = std::min(n, k0 + kTrsmBlock);
    trsm_left_lower_unblocked(l.block(k0, k0, k1 - k0, k1 - k0),
                              x.block(k0, 0, k1 - k0, w));
    if (k1 < n) {
      gemm_nn_update(x.block(k1, 0, n - k1, w),
                     l.block(k1, k0, n - k1, k1 - k0),
                     static_cast<ConstMatrixView>(x).block(k0, 0, k1 - k0, w));
    }
  }
}

void trsm_left_lower_trans(ConstMatrixView l, MatrixView x) {
  PARFACT_CHECK(l.rows == l.cols && x.rows == l.rows);
  const index_t n = l.rows;
  const index_t w = x.cols;
  if (n <= kTrsmBlock || !use_engine(w, kTrsmBlock)) {
    trsm_left_lower_trans_unblocked(l, x);
    return;
  }
  const index_t nblocks = (n + kTrsmBlock - 1) / kTrsmBlock;
  for (index_t bi = nblocks - 1; bi >= 0; --bi) {
    const index_t k0 = bi * kTrsmBlock;
    const index_t k1 = std::min(n, k0 + kTrsmBlock);
    if (k1 < n) {
      gemm_tn_update(x.block(k0, 0, k1 - k0, w),
                     l.block(k1, k0, n - k1, k1 - k0),
                     static_cast<ConstMatrixView>(x).block(k1, 0, n - k1, w));
    }
    trsm_left_lower_trans_unblocked(l.block(k0, k0, k1 - k0, k1 - k0),
                                    x.block(k0, 0, k1 - k0, w));
  }
}

void syrk_lower_update(MatrixView c, ConstMatrixView a) {
  PARFACT_CHECK(c.rows == c.cols && c.rows == a.rows);
  if (use_engine(c.rows, a.cols)) {
    detail::syrk_packed_lower(c, a);
  } else {
    detail::syrk_lower_small(c, a);
  }
}

bool syrk_splittable(index_t n, index_t k) { return use_engine(n, k); }

std::vector<index_t> syrk_slab_bounds(index_t n, index_t slabs) {
  // Row slab [r0, r1) owns a rectangle C(r0:r1, 0:r0) plus the diagonal
  // triangle C(r0:r1, r0:r1); a square-root partition balances the flops.
  std::vector<index_t> bound(static_cast<std::size_t>(slabs) + 1, 0);
  for (index_t t = 1; t < slabs; ++t) {
    const double frac = std::sqrt(static_cast<double>(t) / slabs);
    bound[t] = std::clamp<index_t>(static_cast<index_t>(n * frac),
                                   bound[t - 1], n);
  }
  bound[slabs] = n;
  return bound;
}

void syrk_lower_update_slab(MatrixView c, ConstMatrixView a, index_t r0,
                            index_t r1) {
  // Both pieces run on the packed engine, exactly like the serial call, so
  // the row split leaves the result bitwise unchanged.
  if (r0 >= r1) return;
  const index_t kk = a.cols;
  const index_t len = r1 - r0;
  if (r0 > 0) {
    detail::gemm_packed(c.block(r0, 0, len, r0), a.block(r0, 0, len, kk),
                        false, a.block(0, 0, r0, kk), false);
  }
  detail::syrk_packed_lower(c.block(r0, r0, len, len),
                            a.block(r0, 0, len, kk));
}

void gemm_nt_update(MatrixView c, ConstMatrixView a, ConstMatrixView b) {
  PARFACT_CHECK(c.rows == a.rows && c.cols == b.rows && a.cols == b.cols);
  if (use_engine(c.cols, a.cols)) {
    detail::gemm_packed(c, a, false, b, false);
  } else {
    detail::gemm_nt_small(c, a, b);
  }
}

void gemm_nn_update(MatrixView c, ConstMatrixView a, ConstMatrixView b) {
  PARFACT_CHECK(c.rows == a.rows && c.cols == b.cols && a.cols == b.rows);
  if (use_engine(c.cols, a.cols)) {
    detail::gemm_packed(c, a, false, b, true);
    return;
  }
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t kk = a.cols;
  for (index_t j = 0; j < n; ++j) {
    real_t* cj = &c.at(0, j);
    for (index_t k0 = 0; k0 < kk; k0 += detail::kSmallBlock) {
      const index_t k1 = std::min(kk, k0 + detail::kSmallBlock);
      for (index_t k = k0; k < k1; ++k) {
        const real_t bkj = b.at(k, j);
        if (bkj == 0.0) continue;
        const real_t* ak = &a.at(0, k);
        for (index_t i = 0; i < m; ++i) cj[i] -= ak[i] * bkj;
      }
    }
  }
}

void gemm_tn_update(MatrixView c, ConstMatrixView a, ConstMatrixView b) {
  PARFACT_CHECK(c.rows == a.cols && c.cols == b.cols && a.rows == b.rows);
  if (use_engine(c.cols, a.rows)) {
    detail::gemm_packed(c, a, true, b, true);
    return;
  }
  // Four dot products in flight, so four add chains overlap instead of one
  // waiting on the last add. Each output still starts at 0.0, sums k
  // ascending and is then subtracted from c, so its bits do not depend on
  // the blocking. This stays out of the multi-versioned unit on purpose:
  // FMA contraction there would move the solve's bits.
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t kk = a.rows;
  const std::size_t lda = static_cast<std::size_t>(a.ld);
  for (index_t j = 0; j < n; ++j) {
    const real_t* bj = &b.at(0, j);
    real_t* cj = &c.at(0, j);
    index_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const real_t* a0 = a.data + static_cast<std::size_t>(i) * lda;
      const real_t* a1 = a0 + lda;
      const real_t* a2 = a1 + lda;
      const real_t* a3 = a2 + lda;
      real_t acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (index_t k = 0; k < kk; ++k) {
        const real_t bk = bj[k];
        acc0 += a0[k] * bk;
        acc1 += a1[k] * bk;
        acc2 += a2[k] * bk;
        acc3 += a3[k] * bk;
      }
      cj[i] -= acc0;
      cj[i + 1] -= acc1;
      cj[i + 2] -= acc2;
      cj[i + 3] -= acc3;
    }
    for (; i < m; ++i) {
      const real_t* ai = &a.at(0, i);
      real_t acc = 0.0;
      for (index_t k = 0; k < kk; ++k) acc += ai[k] * bj[k];
      cj[i] -= acc;
    }
  }
}

double measure_gemm_rate(index_t m) {
  PARFACT_CHECK(m > 0);
  std::vector<real_t> ca(static_cast<std::size_t>(m) * m, 0.0);
  std::vector<real_t> aa(static_cast<std::size_t>(m) * m);
  std::vector<real_t> ba(static_cast<std::size_t>(m) * m);
  Prng rng(12345);
  for (auto& v : aa) v = rng.next_real(-1, 1);
  for (auto& v : ba) v = rng.next_real(-1, 1);
  MatrixView c{ca.data(), m, m, m};
  ConstMatrixView a{aa.data(), m, m, m};
  ConstMatrixView b{ba.data(), m, m, m};
  const double flops_per_call = 2.0 * m * m * m;
  // Warm up once (page faults, clone resolution), then time a probe call
  // and derive the repetition count that makes the measurement last
  // ~50 ms, so the calibration is stable on slow and fast machines alike.
  gemm_nt_update(c, a, b);
  WallTimer probe;
  gemm_nt_update(c, a, b);
  const double probe_sec = std::max(probe.seconds(), 1e-9);
  constexpr double kTargetSeconds = 0.05;
  const int reps = static_cast<int>(
      std::clamp(kTargetSeconds / probe_sec, 1.0, 1e6));
  WallTimer t;
  for (int r = 0; r < reps; ++r) gemm_nt_update(c, a, b);
  const double sec = t.seconds();
  PARFACT_CHECK(sec > 0.0);
  return flops_per_call * reps / sec;
}

}  // namespace parfact
