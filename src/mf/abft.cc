#include "mf/abft.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "mf/front_kernel.h"
#include "support/checksum.h"
#include "support/error.h"

namespace parfact {
namespace {

// splitmix64: seeds the deterministic choice of the flipped element.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kCellSalt = 0x5bf03635ull;

// The supernode an injection strikes: the named one, or one from the seed.
index_t inject_target(const SymbolicFactor& sym, const SdcInjection& inj) {
  if (inj.supernode != kNone) return inj.supernode;
  return static_cast<index_t>(mix64(inj.seed) %
                              static_cast<std::uint64_t>(sym.n_supernodes));
}

// Flips the injection's bit in a seeded element of m's lower trapezoid.
void flip_lower(MatrixView m, const SdcInjection& inj) {
  const std::uint64_t h1 = mix64(inj.seed ^ kCellSalt);
  const std::uint64_t h2 = mix64(h1);
  const index_t j =
      static_cast<index_t>(h1 % static_cast<std::uint64_t>(m.cols));
  const index_t i =
      j + static_cast<index_t>(h2 % static_cast<std::uint64_t>(m.rows - j));
  m.at(i, j) = flip_bit(m.at(i, j), inj.bit);
}

struct ColSums {
  std::vector<real_t> sum;
  std::vector<real_t> abs;
  void reset(index_t n) {
    sum.assign(static_cast<std::size_t>(n), 0.0);
    abs.assign(static_cast<std::size_t>(n), 0.0);
  }
  void add(index_t j, real_t v) {
    sum[static_cast<std::size_t>(j)] += v;
    abs[static_cast<std::size_t>(j)] += std::abs(v);
  }
};

// The colsum helpers stream one contiguous column at a time (the views are
// column-major); the checks are O(front^2) against O(front^3) kernels and
// must stay memory-bound, not stride-bound, for the overhead budget to hold.
//
// The per-element loops below are the entire ABFT cost, so they carry
// runtime ISA dispatch (GCC ifunc clones) where available: the build stays
// a portable baseline binary, but a machine with wider vectors runs the
// checks at its native width. The loops are element-wise (or fixed-lane)
// streams, so every clone performs the identical FP operations in the
// identical order — the dispatch never changes a computed sum.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__)
// 256-bit on purpose: 512-bit ops trigger license-based downclocking on
// several x86 parts, and the cycles saved in the checks would be repaid
// with interest by the surrounding kernels running at the lower clock.
#define PARFACT_ABFT_CLONES \
  __attribute__((target_clones("default", "avx2")))
#else
#define PARFACT_ABFT_CLONES
#endif

// Four doubles; lowers to whatever ISA the enclosing clone targets. The
// helpers below take and return vectors by reference only, so no vector
// crosses a call boundary of the baseline ABI.
typedef real_t v4d __attribute__((vector_size(4 * sizeof(real_t))));
typedef long long v4i __attribute__((vector_size(4 * sizeof(long long))));
typedef unsigned long long v4u __attribute__((vector_size(sizeof(v4d))));

// out = |v| (clears the sign bits, as std::abs does).
__attribute__((always_inline)) inline void abs4(const v4d& v, v4d& out) {
  constexpr unsigned long long kMag = ~0ull >> 1;
  out = reinterpret_cast<v4d>(reinterpret_cast<const v4u&>(v) &
                              v4u{kMag, kMag, kMag, kMag});
}

// Value + magnitude reduction over a contiguous range with eight
// independent partial accumulators (two vectors; lane l sums the elements
// i ≡ l mod 8): without reassociation (-ffast-math is off) a naive loop is
// a single add-latency chain at ~4 cycles per element; independent lanes
// run at load throughput. The fixed blocking keeps the summation order
// deterministic run to run.
PARFACT_ABFT_CLONES
void sum_abs(const real_t* v, index_t n, real_t& sum_out, real_t& abs_out) {
  v4d s0 = {0.0, 0.0, 0.0, 0.0};
  v4d s1 = s0;
  v4d a0 = s0;
  v4d a1 = s0;
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    v4d x0, x1, y0, y1;
    __builtin_memcpy(&x0, v + i, sizeof x0);
    __builtin_memcpy(&x1, v + i + 4, sizeof x1);
    abs4(x0, y0);
    abs4(x1, y1);
    s0 += x0;
    s1 += x1;
    a0 += y0;
    a1 += y1;
  }
  for (; i < n; ++i) {
    s0[0] += v[i];
    a0[0] += std::abs(v[i]);
  }
  sum_out = ((s0[0] + s0[1]) + (s0[2] + s0[3])) +
            ((s1[0] + s1[1]) + (s1[2] + s1[3]));
  abs_out = ((a0[0] + a0[1]) + (a0[2] + a0[3])) +
            ((a1[0] + a1[1]) + (a1[2] + a1[3]));
}

// dst_s[i] += col[i]; dst_a[i] += |col[i]| — the symmetric-completion row
// scatter (assembly A11 read and the U' pass).
PARFACT_ABFT_CLONES
void accum_abs(real_t* dst_s, real_t* dst_a, const real_t* col, index_t n) {
  for (index_t i = 0; i < n; ++i) {
    dst_s[i] += col[i];
    dst_a[i] += std::abs(col[i]);
  }
}

// One L11 column's contribution to both triangular identities:
// p2 += w1*col, s2 += w1a*|col|, p3 += w2*col, s3 += w2a*|col|.
PARFACT_ABFT_CLONES
void accum_two_weighted(real_t* p2, real_t* s2, real_t* p3, real_t* s3,
                        const real_t* col, index_t n, real_t w1, real_t w1a,
                        real_t w2, real_t w2a) {
  for (index_t i = 0; i < n; ++i) {
    const real_t v = col[i];
    const real_t av = std::abs(v);
    p2[i] += w1 * v;
    s2[i] += w1a * av;
    p3[i] += w2 * v;
    s3[i] += w2a * av;
  }
}

// Rows [j, j+4) of the four columns starting at `col` (stride ld),
// transposed: out[i] holds row j+i, one column per lane.
__attribute__((always_inline)) inline void load_rows(const real_t* col,
                                                     index_t ld, index_t j,
                                                     v4d out[4]) {
  v4d x0, x1, x2, x3;
  __builtin_memcpy(&x0, col + j, sizeof x0);
  __builtin_memcpy(&x1, col + ld + j, sizeof x1);
  __builtin_memcpy(&x2, col + 2 * ld + j, sizeof x2);
  __builtin_memcpy(&x3, col + 3 * ld + j, sizeof x3);
  const v4d t0 = __builtin_shuffle(x0, x1, v4i{0, 4, 2, 6});
  const v4d t1 = __builtin_shuffle(x0, x1, v4i{1, 5, 3, 7});
  const v4d t2 = __builtin_shuffle(x2, x3, v4i{0, 4, 2, 6});
  const v4d t3 = __builtin_shuffle(x2, x3, v4i{1, 5, 3, 7});
  out[0] = __builtin_shuffle(t0, t2, v4i{0, 1, 4, 5});
  out[1] = __builtin_shuffle(t1, t3, v4i{0, 1, 4, 5});
  out[2] = __builtin_shuffle(t0, t2, v4i{2, 3, 6, 7});
  out[3] = __builtin_shuffle(t1, t3, v4i{2, 3, 6, 7});
}

// out[i] = (v[i][0] + v[i][1]) + (v[i][2] + v[i][3]) for i < 4.
__attribute__((always_inline)) inline void lane_sums(const v4d v[4],
                                                     v4d& out) {
  const v4d h01 = __builtin_shuffle(v[0], v[1], v4i{0, 4, 2, 6}) +
                  __builtin_shuffle(v[0], v[1], v4i{1, 5, 3, 7});
  const v4d h23 = __builtin_shuffle(v[2], v[3], v4i{0, 4, 2, 6}) +
                  __builtin_shuffle(v[2], v[3], v4i{1, 5, 3, 7});
  out = __builtin_shuffle(h01, h23, v4i{0, 1, 4, 5}) +
        __builtin_shuffle(h01, h23, v4i{2, 3, 6, 7});
}

// UPDATE-identity prediction on LOWER column sums. For the trailing update
// U' = U0 − L21 Mᵀ, the lower column sum obeys
//
//   lowcol_j(U') = lowcol_j(U0) − Σ_k S_j(k) M(j,k),   S_j(k) = Σ_{i≥j} L21(i,k)
//
// where S_j is the running suffix sum of L21's columns. Walking rows
// descending turns the j-dependent truncation into one running p-vector,
// so the prediction costs O(b·p) — reading L21 and M once — instead of the
// O(b²) row-scatter a symmetric-sum identity would need over U' itself.
// Columns go in fixed groups of four, one per vector lane: each 4 x 4 tile
// is transposed in registers so the four suffix chains advance together
// and the per-row dot products reduce in the fixed order
// (t0 + t1) + (t2 + t3). The final suffix values are each column's full
// sum, returned in `l21cols` for the TRSM weights / LDLᵀ rescale check.
PARFACT_ABFT_CLONES
void predict_update_lower(ConstMatrixView l21, ConstMatrixView m,
                          real_t* pred, real_t* scale, ColSums& l21cols) {
  const index_t b = l21.rows;
  const index_t p = l21.cols;
  const bool m_is_l21 = m.data == l21.data && m.ld == l21.ld;  // Cholesky
  l21cols.reset(p);
  index_t k = 0;
  for (; k + 4 <= p; k += 4) {
    const real_t* c = l21.data + static_cast<std::size_t>(k) * l21.ld;
    const real_t* mc = m.data + static_cast<std::size_t>(k) * m.ld;
    const std::size_t ld = static_cast<std::size_t>(l21.ld);
    const std::size_t mld = static_cast<std::size_t>(m.ld);
    v4d s = {0.0, 0.0, 0.0, 0.0};
    v4d a = s;
    index_t j = b;
    while (j % 4 != 0) {  // the rows below the last full tile, one by one
      --j;
      const v4d r = {c[j], c[ld + j], c[2 * ld + j], c[3 * ld + j]};
      const v4d mr = m_is_l21 ? r
                              : v4d{mc[j], mc[mld + j], mc[2 * mld + j],
                                    mc[3 * mld + j]};
      v4d ar, amr;
      abs4(r, ar);
      abs4(mr, amr);
      s += r;
      a += ar;
      const v4d t = s * mr;
      const v4d u = a * amr;
      pred[j] -= (t[0] + t[1]) + (t[2] + t[3]);
      scale[j] += (u[0] + u[1]) + (u[2] + u[3]);
    }
    for (; j > 0; j -= 4) {
      v4d r[4];
      v4d mr[4];
      load_rows(c, l21.ld, j - 4, r);
      if (m_is_l21) {
        for (int i = 0; i < 4; ++i) mr[i] = r[i];
      } else {
        load_rows(mc, m.ld, j - 4, mr);
      }
      v4d t[4];
      v4d u[4];
      for (int i = 3; i >= 0; --i) {
        v4d ar, amr;
        abs4(r[i], ar);
        abs4(mr[i], amr);
        s += r[i];
        a += ar;
        t[i] = s * mr[i];
        u[i] = a * amr;
      }
      v4d ts, us, dp, ds;
      lane_sums(t, ts);
      lane_sums(u, us);
      __builtin_memcpy(&dp, pred + j - 4, sizeof dp);
      __builtin_memcpy(&ds, scale + j - 4, sizeof ds);
      dp -= ts;
      ds += us;
      __builtin_memcpy(pred + j - 4, &dp, sizeof dp);
      __builtin_memcpy(scale + j - 4, &ds, sizeof ds);
    }
    for (int l = 0; l < 4; ++l) {
      l21cols.sum[static_cast<std::size_t>(k + l)] = s[l];
      l21cols.abs[static_cast<std::size_t>(k + l)] = a[l];
    }
  }
  for (; k < p; ++k) {
    const real_t* c = l21.data + static_cast<std::size_t>(k) * l21.ld;
    const real_t* mc = m.data + static_cast<std::size_t>(k) * m.ld;
    real_t s = 0.0, a = 0.0;
    for (index_t j = b; j-- > 0;) {
      s += c[j];
      a += std::abs(c[j]);
      pred[j] -= s * mc[j];
      scale[j] += a * std::abs(mc[j]);
    }
    l21cols.sum[static_cast<std::size_t>(k)] = s;
    l21cols.abs[static_cast<std::size_t>(k)] = a;
  }
}

// Column sums of a full rectangular view.
void rect_colsums(ConstMatrixView m, ColSums& out) {
  out.reset(m.cols);
  for (index_t j = 0; j < m.cols; ++j) {
    const real_t* col = m.data + static_cast<std::size_t>(j) * m.ld;
    sum_abs(col, m.rows, out.sum[static_cast<std::size_t>(j)],
            out.abs[static_cast<std::size_t>(j)]);
  }
}

// The ABFT per-front hooks of the serial driver: a checksum identity after
// every kernel stage of eliminate_front, fault injection at the stage
// boundaries, and the localization half of detect -> localize -> recompute
// (the driver re-runs whatever subtree block_corrupt() names).
class AbftHooks final : public detail::FrontHooks {
 public:
  AbftHooks(const SymbolicFactor& sym, FactorKind kind,
            std::span<const real_t> d, const AbftOptions& options,
            FactorChecksums* checksums)
      : sym_(sym),
        kind_(kind),
        options_(options),
        d_(d),
        checksums_(checksums),
        children_(detail::build_children(sym)),
        carried_(static_cast<std::size_t>(sym.n_supernodes)) {
    if (checksums_ != nullptr) {
      checksums_->col_sum.assign(static_cast<std::size_t>(sym.n), 0.0);
      checksums_->col_abs.assign(static_cast<std::size_t>(sym.n), 0.0);
    }
  }

  detail::AssemblySums* assembly_sums() override { return &asm_sums_; }

  bool at(detail::FrontStage stage, const Front& f) override {
    switch (stage) {
      case detail::FrontStage::kAssembled:
        maybe_inject(SdcSite::kAssembly, f);
        return check_assembly(f.s, f.panel);
      case detail::FrontStage::kDiagonal:
        maybe_inject(SdcSite::kPotrf, f);
        return true;
      case detail::FrontStage::kPanel:
        maybe_inject(SdcSite::kTrsm, f);
        return true;
      case detail::FrontStage::kUpdated:
        break;
    }
    maybe_inject(SdcSite::kUpdate, f);
    const index_t p = sym_.sn_cols(f.s);
    const index_t b = sym_.sn_below(f.s);
    ConstMatrixView l21{};
    if (b > 0) l21 = f.panel.block(p, 0, b, p);
    if (!check_stages(f.s, f.panel.block(0, 0, p, p), l21, f.m, f.boosted)) {
      return false;
    }
    record_checksums(f.s);
    // The children's blocks are verified and consumed; any later repair
    // that revisits their subtrees regenerates the predictions with them.
    for (const index_t c : children_[f.s]) carried_[c] = ColSums{};
    return true;
  }

  void rejected(index_t s, int attempt) override {
    ++detections_;
    if (attempt + 1 >= options_.max_front_attempts) fail_sticky(s);
  }

  // Re-verifies a live child update block against its carried prediction.
  bool block_corrupt(index_t c, ConstMatrixView block) override {
    const ColSums& want = carried_[c];
    for (index_t j = 0; j < block.cols; ++j) {
      real_t sum = 0.0;
      real_t mag = 0.0;
      sum_abs(block.data + static_cast<std::size_t>(j) * block.ld + j,
              block.rows - j, sum, mag);
      const std::size_t uj = static_cast<std::size_t>(j);
      if (!column_ok(sum, want.sum[uj], want.abs[uj])) return true;
    }
    return false;
  }

  void report(FactorStats& stats) const override {
    stats.abft_checks = checks_;
    stats.abft_detections = detections_;
  }

 private:
  [[nodiscard]] bool column_ok(real_t actual, real_t predicted,
                               real_t scale) const {
    return !abft_mismatch(actual, predicted, scale, options_.tolerance);
  }

  // ---- fault injection -----------------------------------------------

  // Flips one element of the site's region if this front is the campaign
  // target. Non-sticky faults strike once; sticky faults re-strike on
  // every (re)computation of the front.
  void maybe_inject(SdcSite site, const Front& front) {
    const SdcInjection* inj = options_.inject;
    if (inj == nullptr || inj->site != site || injection_fired_ ||
        inject_target(sym_, *inj) != front.s) {
      return;
    }
    const index_t p = sym_.sn_cols(front.s);
    const index_t b = sym_.sn_below(front.s);
    switch (site) {
      case SdcSite::kAssembly:
        flip_lower(front.panel, *inj);
        break;
      case SdcSite::kPotrf:
        flip_lower(front.panel.block(0, 0, p, p), *inj);
        break;
      case SdcSite::kTrsm: {
        if (b == 0) return;
        const std::uint64_t h1 = mix64(inj->seed ^ kCellSalt);
        real_t& cell = front.panel.at(p + static_cast<index_t>(mix64(h1) % b),
                                      static_cast<index_t>(h1 % p));
        cell = flip_bit(cell, inj->bit);
        break;
      }
      case SdcSite::kUpdate:
        if (b == 0) return;
        flip_lower(front.update, *inj);
        break;
      case SdcSite::kStoredFactor:
        return;  // applied outside the driver, after factorize
    }
    if (!inj->sticky) injection_fired_ = true;
  }

  // ---- per-stage checks ----------------------------------------------

  // Assembly-stage verification, fused with the extend-add: the child
  // update blocks' split column sums arrive in asm_sums_, taken from the
  // very read assemble_front performed (no block is ever re-read). Each
  // child column's actual total is first compared against the prediction
  // the child carried from its suffix walk — that IS the child's
  // UPDATE-identity check, executed at consumption time — and the verified
  // actual sums then become the baselines for every downstream identity
  // (lower column sums are linear under extend-add: the lower triangle of
  // a child block maps into the lower triangle of the parent front, column
  // to column). Only the small A11 block is read back and compared against
  // its prediction: that keeps corruption out of the diagonal kernel, so a
  // flipped A11 can neither masquerade as a pivot breakdown nor hide
  // behind a static pivot boost (whose fronts skip the POTRF identity).
  //
  // Fills asm_pred_ (predicted lower A11 sums), a11_pre_ (actual SYMMETRIC
  // A11 sums — the POTRF baseline, built from the same read), a21_pre_
  // (A21 column sums) and u0_ (lower update-seed sums). On mismatch the
  // caller re-verifies the children's blocks and recomputes any corrupt
  // child subtree.
  [[nodiscard]] bool check_assembly(index_t s, ConstMatrixView panel) {
    ++checks_;
    const index_t p = sym_.sn_cols(s);
    const index_t b = sym_.sn_below(s);
    asm_pred_.reset(p);
    a21_pre_.reset(p);
    u0_.reset(b);
    const SparseMatrix& a = sym_.a;
    const index_t first = sym_.sn_start[s];
    const index_t bound = sym_.sn_start[s + 1];
    for (index_t j = first; j < bound; ++j) {
      for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
        const index_t gi = a.row_ind[static_cast<std::size_t>(q)];
        const real_t v = a.values[static_cast<std::size_t>(q)];
        if (gi < bound) {
          asm_pred_.add(j - first, v);
        } else {
          a21_pre_.add(j - first, v);
        }
      }
    }
    const auto prows = sym_.below_rows(s);
    std::size_t ic = 0;
    for (const index_t c : children_[s]) {
      ++checks_;  // the child block's UPDATE identity, checked at consumption
      const auto crows = sym_.below_rows(c);
      const index_t cb = sym_.sn_below(c);
      const std::vector<real_t>& cs = asm_sums_.per_child[ic++];
      const ColSums& want = carried_[c];
      // Both row lists are ascending, so a single merge walk maps the
      // seed-landing child columns onto this front's update rows.
      index_t pi = 0;
      for (index_t cj = 0; cj < cb; ++cj) {
        const std::size_t uc = static_cast<std::size_t>(cj);
        const real_t* o = cs.data() + uc * 4;
        if (!column_ok(o[0] + o[2], want.sum[uc], want.abs[uc])) return false;
        const index_t g = crows[cj];
        if (g < bound) {
          // Panel-mapped child column: its panel-landing rows are A11
          // rows, its seed-landing rows are A21 rows of this front.
          const index_t lj = g - first;
          asm_pred_.sum[lj] += o[0];
          asm_pred_.abs[lj] += o[1];
          a21_pre_.sum[lj] += o[2];
          a21_pre_.abs[lj] += o[3];
        } else {
          while (prows[pi] < g) ++pi;
          u0_.sum[pi] += o[2];
          u0_.abs[pi] += o[3];
        }
      }
    }
    // Read back the A11 block only: lower sums feed the per-column
    // assembly comparison; the symmetric completion (a second sweep of the
    // L1-hot column) builds the POTRF baseline from the same read.
    a11_pre_.reset(p);
    for (index_t j = 0; j < p; ++j) {
      const real_t* col = panel.data + static_cast<std::size_t>(j) * panel.ld;
      real_t s11 = 0.0;
      real_t m11 = 0.0;
      sum_abs(col + j, p - j, s11, m11);
      real_t* as = a11_pre_.sum.data();
      real_t* aa = a11_pre_.abs.data();
      accum_abs(as + j + 1, aa + j + 1, col + j + 1, p - j - 1);
      as[j] += s11;
      aa[j] += m11;
      const std::size_t uj = static_cast<std::size_t>(j);
      if (!column_ok(s11, asm_pred_.sum[uj], asm_pred_.abs[uj])) return false;
    }
    return true;
  }

  // Combined post-kernel verification, two streaming passes total:
  //
  //   POTRF identity:  e'A11 = (e'L11) L11'        (LDLᵀ: weight by D)
  //   TRSM identity:   colsums(M) L11' = colsums(A21),  M = A21 L11⁻ᵀ
  //   UPDATE identity: lowcols(U') = lowcols(U0) − suffix(L21)·M  (per row)
  //
  // Pass 1 walks L21/M once (descending, predict_update_lower), producing
  // the UPDATE-identity prediction plus the L21 column sums as a
  // byproduct — for Cholesky those ARE the M sums the TRSM identity
  // weights with. Pass 2 walks L11 once, serving both triangular
  // identities. The update block itself is never read here: the
  // UPDATE-identity prediction is carried to the parent, which compares it
  // against the block's actual sums during its own extend-add (the block's
  // one and only read) — see check_assembly. Deferring the POTRF
  // comparison until after TRSM/UPDATE ran costs wasted kernel work on a
  // corrupt front (rare), but the retry reassembles from scratch so the
  // healed result is still bitwise identical.
  //
  // The POTRF identity is skipped when static pivoting boosted a pivot in
  // this front — the boost deliberately breaks A11 = L11 L11'. The TRSM
  // identity holds for whatever L11 the diagonal stage produced. For LDLᵀ
  // the panel was rescaled to L21 = M D⁻¹, and the rescale is verified
  // too: colsums(L21)·d = colsums(M).
  [[nodiscard]] bool check_stages(index_t s, ConstMatrixView l11,
                                  ConstMatrixView l21, ConstMatrixView m,
                                  count_t boosted) {
    const index_t p = l11.cols;
    const index_t b = sym_.sn_below(s);
    const index_t first = sym_.sn_start[s];
    if (boosted == 0) ++checks_;  // POTRF
    if (b > 0) ++checks_;         // TRSM (UPDATE is counted at consumption)

    // Pass 1: UPDATE prediction + L21/M column sums.
    pred_.assign(u0_.sum.begin(), u0_.sum.end());
    scale_.assign(u0_.abs.begin(), u0_.abs.end());
    if (b > 0) {
      if (kind_ == FactorKind::kCholesky) {
        predict_update_lower(l21, m, pred_.data(), scale_.data(), msums_);
      } else {
        predict_update_lower(l21, m, pred_.data(), scale_.data(), l21sums_);
        rect_colsums(m, msums_);
      }
    } else {
      msums_.reset(p);
    }

    // Pass 2: L11 column sums + both triangular predictions.
    l11sums_.reset(p);
    pred2_.assign(static_cast<std::size_t>(p), 0.0);
    scale2_.assign(static_cast<std::size_t>(p), 0.0);
    pred3_.assign(static_cast<std::size_t>(p), 0.0);
    scale3_.assign(static_cast<std::size_t>(p), 0.0);
    real_t* p2 = pred2_.data();
    real_t* s2 = scale2_.data();
    real_t* p3 = pred3_.data();
    real_t* s3 = scale3_.data();
    for (index_t k = 0; k < p; ++k) {
      const real_t* col = l11.data + static_cast<std::size_t>(k) * l11.ld;
      real_t sum = 0.0;
      real_t mag = 0.0;
      sum_abs(col + k, p - k, sum, mag);
      const std::size_t uk = static_cast<std::size_t>(k);
      l11sums_.sum[uk] = sum;
      l11sums_.abs[uk] = mag;
      real_t w1 = sum;
      real_t w1a = mag;
      if (kind_ == FactorKind::kLdlt) {
        const real_t dk = d_[static_cast<std::size_t>(first + k)];
        w1 *= dk;
        w1a *= std::abs(dk);
      }
      const real_t w2 = msums_.sum[uk];
      const real_t w2a = msums_.abs[uk];
      accum_two_weighted(p2 + k, s2 + k, p3 + k, s3 + k, col + k, p - k, w1,
                         w1a, w2, w2a);
    }
    if (boosted == 0) {
      for (index_t j = 0; j < p; ++j) {
        const std::size_t uj = static_cast<std::size_t>(j);
        if (!column_ok(a11_pre_.sum[uj], p2[j], a11_pre_.abs[uj] + s2[j])) {
          return false;
        }
      }
    }
    if (b == 0) {
      carried_[s].reset(0);
      return true;
    }
    for (index_t j = 0; j < p; ++j) {
      const std::size_t uj = static_cast<std::size_t>(j);
      if (!column_ok(a21_pre_.sum[uj], p3[j], a21_pre_.abs[uj] + s3[j])) {
        return false;
      }
    }
    if (kind_ == FactorKind::kLdlt) {
      for (index_t k = 0; k < p; ++k) {
        const std::size_t uk = static_cast<std::size_t>(k);
        const real_t dk = d_[static_cast<std::size_t>(first + k)];
        if (!column_ok(l21sums_.sum[uk] * dk, msums_.sum[uk],
                       l21sums_.abs[uk] * std::abs(dk) + msums_.abs[uk])) {
          return false;
        }
      }
    }

    // Carry the UPDATE-identity prediction (value + tolerance scale) to
    // the parent; it is the truth the block's actual sums are verified
    // against when the parent's extend-add reads them.
    ColSums& car = carried_[s];
    car.sum.assign(pred_.begin(), pred_.end());
    car.abs.assign(scale_.begin(), scale_.end());
    return true;
  }

  [[noreturn]] void fail_sticky(index_t s) const {
    std::ostringstream os;
    os << "abft: persistent corruption at retry of supernode " << s
       << " after " << options_.max_front_attempts
       << " recompute attempt(s)";
    throw StatusError(
        Status::failure(StatusCode::kDataCorruption, os.str(), s));
  }

  // The stored-factor checksums are the L11 sums refreshed after the
  // diagonal kernel plus the L21 sums from the TRSM check — the panel is
  // not re-read.
  void record_checksums(index_t s) {
    if (checksums_ == nullptr) return;
    const index_t p = sym_.sn_cols(s);
    const index_t first = sym_.sn_start[s];
    const ColSums* l21s =
        sym_.sn_below(s) > 0
            ? (kind_ == FactorKind::kCholesky ? &msums_ : &l21sums_)
            : nullptr;
    for (index_t j = 0; j < p; ++j) {
      const std::size_t g = static_cast<std::size_t>(first + j);
      const std::size_t uj = static_cast<std::size_t>(j);
      checksums_->col_sum[g] =
          l11sums_.sum[uj] + (l21s != nullptr ? l21s->sum[uj] : 0.0);
      checksums_->col_abs[g] =
          l11sums_.abs[uj] + (l21s != nullptr ? l21s->abs[uj] : 0.0);
    }
  }

  const SymbolicFactor& sym_;
  const FactorKind kind_;
  const AbftOptions options_;
  const std::span<const real_t> d_;
  FactorChecksums* const checksums_;
  const std::vector<std::vector<index_t>> children_;
  std::vector<ColSums> carried_;  ///< predicted update-block sums + scales
  detail::AssemblySums asm_sums_;  ///< child split sums from the extend-add
  bool injection_fired_ = false;
  count_t checks_ = 0;
  count_t detections_ = 0;

  // Per-front check scratch, reused across fronts so the O(front^2) checks
  // never allocate. Only valid within one front's stage sequence.
  ColSums asm_pred_;   ///< predicted lower A11 sums (A + carried)
  ColSums a11_pre_;    ///< actual symmetric A11 sums (POTRF baseline)
  ColSums a21_pre_;    ///< predicted A21 column sums (A + carried)
  ColSums u0_;         ///< predicted lower update-seed sums (carried)
  ColSums l11sums_;    ///< L11 column sums after the diagonal kernel
  ColSums msums_;      ///< M = A21 L11⁻ᵀ column sums after TRSM
  ColSums l21sums_;    ///< L21 column sums (LDLᵀ rescale check)
  std::vector<real_t> pred_;    ///< UPDATE-identity prediction
  std::vector<real_t> scale_;
  std::vector<real_t> pred2_;   ///< POTRF-identity prediction
  std::vector<real_t> scale2_;
  std::vector<real_t> pred3_;   ///< TRSM-identity prediction
  std::vector<real_t> scale3_;
};

// Sum and magnitude sum of each stored panel column of supernode s,
// written into `out` at the supernode's postordered columns.
void panel_checksums(const SymbolicFactor& sym, const CholeskyFactor& factor,
                     index_t s, FactorChecksums& out) {
  const ConstMatrixView panel = factor.panel(s);
  const index_t first = sym.sn_start[s];
  for (index_t j = 0; j < panel.cols; ++j) {
    real_t sum = 0.0;
    real_t abs = 0.0;
    for (index_t i = j; i < panel.rows; ++i) {
      const real_t v = panel.at(i, j);
      sum += v;
      abs += std::abs(v);
    }
    out.col_sum[static_cast<std::size_t>(first + j)] = sum;
    out.col_abs[static_cast<std::size_t>(first + j)] = abs;
  }
}

}  // namespace

namespace detail {

std::unique_ptr<FrontHooks> make_abft_hooks(const SymbolicFactor& sym,
                                            FactorKind kind,
                                            std::span<const real_t> d,
                                            const AbftOptions& options,
                                            FactorChecksums* checksums) {
  return std::make_unique<AbftHooks>(sym, kind, d, options, checksums);
}

}  // namespace detail

CholeskyFactor multifrontal_factor_abft(const SymbolicFactor& sym,
                                        FactorStats* stats, FactorKind kind,
                                        PivotPolicy pivot,
                                        const AbftOptions& options,
                                        FactorChecksums* checksums,
                                        CancelToken cancel) {
  CholeskyFactor factor(sym);
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = factor.allocate_diag();
  detail::factor_serial(sym, {.factor = &factor, .zeroed = true}, kind, d,
                        pivot, stats, std::move(cancel), &options, checksums);
  return factor;
}

std::size_t abft_state_bytes(const SymbolicFactor& sym, FactorKind kind,
                             bool checksums) {
  // Replays the hooks' allocations along the postorder: front s carries a
  // 2b prediction from its completion until its parent's; asm_sums_ keeps,
  // per child slot, the largest 4·cb block it was sized for; the per-front
  // scratch is five ColSums (six for LDLᵀ) and four vectors of width p,
  // one ColSums and two vectors of height b, at the widest front.
  const auto children = detail::build_children(sym);
  std::size_t live = 0;
  std::size_t reals = 0;
  std::size_t max_p = 0;
  std::size_t max_b = 0;
  std::vector<std::size_t> slot;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const auto b = static_cast<std::size_t>(sym.sn_below(s));
    live += 2 * b;
    reals = std::max(reals, live);
    slot.resize(std::max(slot.size(), children[s].size()));
    for (std::size_t i = 0; i < children[s].size(); ++i) {
      const auto cb = static_cast<std::size_t>(sym.sn_below(children[s][i]));
      live -= 2 * cb;
      slot[i] = std::max(slot[i], 4 * cb);
    }
    max_p = std::max(max_p, static_cast<std::size_t>(sym.sn_cols(s)));
    max_b = std::max(max_b, b);
  }
  reals += (kind == FactorKind::kLdlt ? 16 : 14) * max_p + 4 * max_b;
  for (const std::size_t cap : slot) reals += cap;
  if (checksums) reals += 2 * static_cast<std::size_t>(sym.n);
  // The hooks object and its per-supernode tables (vectors at up to twice
  // their length after growth).
  return reals * sizeof(real_t) + sizeof(AbftHooks) +
         static_cast<std::size_t>(sym.n_supernodes) *
             (sizeof(ColSums) + sizeof(std::vector<index_t>) +
              2 * (sizeof(std::vector<real_t>) + sizeof(index_t)));
}

FactorChecksums compute_factor_checksums(const SymbolicFactor& sym,
                                         const CholeskyFactor& factor) {
  FactorChecksums out;
  out.col_sum.assign(static_cast<std::size_t>(sym.n), 0.0);
  out.col_abs.assign(static_cast<std::size_t>(sym.n), 0.0);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    panel_checksums(sym, factor, s, out);
  }
  return out;
}

index_t verify_factor(const SymbolicFactor& sym, const CholeskyFactor& factor,
                      const FactorChecksums& checksums, real_t tolerance) {
  PARFACT_CHECK(!checksums.empty());
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView panel = factor.panel(s);
    const index_t first = sym.sn_start[s];
    for (index_t j = 0; j < panel.cols; ++j) {
      real_t sum = 0.0;
      for (index_t i = j; i < panel.rows; ++i) sum += panel.at(i, j);
      const std::size_t g = static_cast<std::size_t>(first + j);
      if (abft_mismatch(sum, checksums.col_sum[g], checksums.col_abs[g],
                        tolerance)) {
        return s;
      }
    }
  }
  return kNone;
}

index_t first_descendant(const SymbolicFactor& sym, index_t s) {
  const auto children = detail::build_children(sym);
  index_t t = s;
  while (!children[t].empty()) t = children[t].front();
  return t;
}

count_t recompute_subtree(const SymbolicFactor& sym, index_t root,
                          FactorKind kind, PivotPolicy pivot,
                          CholeskyFactor& factor,
                          FactorChecksums* checksums) {
  detail::factor_serial(sym, {.factor = &factor}, kind, factor.mutable_diag(),
                        pivot, nullptr, {}, nullptr, nullptr, root);
  const index_t lo = first_descendant(sym, root);
  if (checksums != nullptr && !checksums->empty()) {
    for (index_t t = lo; t <= root; ++t) {
      panel_checksums(sym, factor, t, *checksums);
    }
  }
  return root - lo + 1;
}

index_t inject_factor_bitflip(const SymbolicFactor& sym,
                              CholeskyFactor& factor,
                              const SdcInjection& injection) {
  const index_t s = inject_target(sym, injection);
  flip_lower(factor.panel(s), injection);
  return s;
}

}  // namespace parfact
