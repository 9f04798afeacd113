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
};

// The colsum helpers stream one contiguous column at a time (the views are
// column-major); the checks are O(front^2) against O(front^3) kernels and
// must stay memory-bound, not stride-bound, for the overhead budget to hold.
//
// The per-element loops below are the entire ABFT cost, so they carry
// runtime ISA dispatch (GCC ifunc clones) where available: the build stays
// a portable baseline binary, but a machine with wider vectors runs the
// checks at its native width — the same clones as the dense kernels
// (dense/microkernel.cc), whose AVX-512 code already sets the clock the
// checks run at. The loops are element-wise (or fixed-lane) streams, so
// every clone performs the same FP operations in the same order; the
// x86-64-v3/v4 clones contract a·b + c into one FMA, which moves a check
// sum by rounding only and never changes a factor bit. TSan builds keep
// only the default clone (GCC 12's TSan crashes on ifunc resolvers).
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define PARFACT_ABFT_CLONES \
  __attribute__(( \
      target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
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
  out = reinterpret_cast<v4d>(reinterpret_cast<v4u>(v) &
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

// Two adjacent L11 columns' contributions to both triangular identities,
// in column order: `c0` from row 0, `c1` (the next column, same base row)
// from row 1, each adding p2 += w1*col, s2 += w1a*|col|, p3 += w2*col,
// s3 += w2a*|col| with the four prediction streams loaded and stored once.
// w = {w1, w1a, w2, w2a} of c0, then of c1. With n == 1 only c0[0] and
// w[0..3] are read: a lone last column passes itself as c1. Without
// kTrsm (a front with no below block, so no TRSM identity) p3 and s3 are
// left alone.
template <bool kTrsm>
__attribute__((always_inline)) inline void accum_pair(
    real_t* __restrict p2, real_t* __restrict s2, real_t* __restrict p3,
    real_t* __restrict s3, const real_t* __restrict c0,
    const real_t* __restrict c1, index_t n, const real_t* w) {
  const real_t v0 = c0[0];
  p2[0] += w[0] * v0;
  s2[0] += w[1] * std::abs(v0);
  if constexpr (kTrsm) {
    p3[0] += w[2] * v0;
    s3[0] += w[3] * std::abs(v0);
  }
  for (index_t i = 1; i < n; ++i) {
    const real_t a = c0[i];
    const real_t b = c1[i];
    p2[i] = (p2[i] + w[0] * a) + w[4] * b;
    s2[i] = (s2[i] + w[1] * std::abs(a)) + w[5] * std::abs(b);
    if constexpr (kTrsm) {
      p3[i] = (p3[i] + w[2] * a) + w[6] * b;
      s3[i] = (s3[i] + w[3] * std::abs(a)) + w[7] * std::abs(b);
    }
  }
}

PARFACT_ABFT_CLONES
void accum_two_weighted_pair(real_t* __restrict p2, real_t* __restrict s2,
                             real_t* __restrict p3, real_t* __restrict s3,
                             const real_t* __restrict c0,
                             const real_t* __restrict c1, index_t n,
                             const real_t* w, bool trsm) {
  if (n == 0) return;
  if (trsm) {
    accum_pair<true>(p2, s2, p3, s3, c0, c1, n, w);
  } else {
    accum_pair<false>(p2, s2, p3, s3, c0, c1, n, w);
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
// is transposed in registers so the four suffix chains advance together,
// and groups pass over the rows in pairs. Each row's products stay in four
// lanes across all groups and are reduced once, (l0 + l1) + (l2 + l3),
// after the last group; the rows go in chunks of kWalkRows, so those lane
// accumulators stay in L1 while every group passes over the chunk. The
// final suffix values are each column's full sum, returned in `l21cols`
// for the TRSM weights / LDLᵀ rescale check. `work` is scratch.
constexpr index_t kWalkRows = 128;

// G four-column groups side by side over rows [lo, hi) of a chunk:
// advances each group's suffix sums `s[q]`, `a[q]` and adds the rows'
// products to `lanes` (eight per row: value lanes, then magnitude lanes;
// row j at j - lo), group q's after group q - 1's — the order in which
// one group at a time would add them. Two groups give the suffix chains,
// which advance one row per add latency, a second chain to overlap with,
// and load and store each lane row once per two groups.
template <bool kMIsL21, int G>
__attribute__((always_inline)) inline void walk_group(
    const real_t* c, std::size_t ld, const real_t* mc, std::size_t mld,
    index_t lo, index_t hi, real_t* lanes, v4d s[G], v4d a[G]) {
  const auto add_row = [&](index_t j, const v4d t[G], const v4d u[G]) {
    real_t* row = lanes + 8 * static_cast<std::size_t>(j - lo);
    v4d lt, lu;
    __builtin_memcpy(&lt, row, sizeof lt);
    __builtin_memcpy(&lu, row + 4, sizeof lu);
    for (int q = 0; q < G; ++q) {
      lt += t[q];
      lu += u[q];
    }
    __builtin_memcpy(row, &lt, sizeof lt);
    __builtin_memcpy(row + 4, &lu, sizeof lu);
  };
  index_t j = hi;
  while (j % 4 != 0) {  // the rows below the last full tile, one by one
    --j;
    v4d t[G], u[G];
    for (int q = 0; q < G; ++q) {
      const real_t* cq = c + 4 * q * ld;
      const real_t* mq = mc + 4 * q * mld;
      const v4d r = {cq[j], cq[ld + j], cq[2 * ld + j], cq[3 * ld + j]};
      const v4d mr = kMIsL21 ? r
                             : v4d{mq[j], mq[mld + j], mq[2 * mld + j],
                                   mq[3 * mld + j]};
      v4d ar, amr;
      abs4(r, ar);
      abs4(mr, amr);
      s[q] += r;
      a[q] += ar;
      t[q] = s[q] * mr;
      u[q] = a[q] * amr;
    }
    add_row(j, t, u);
  }
  for (; j > lo; j -= 4) {
    v4d r[G][4];
    v4d m_rows[G][4];
    for (int q = 0; q < G; ++q) {
      load_rows(c + 4 * q * ld, static_cast<index_t>(ld), j - 4, r[q]);
      if constexpr (!kMIsL21) {
        load_rows(mc + 4 * q * mld, static_cast<index_t>(mld), j - 4,
                  m_rows[q]);
      }
    }
    for (int i = 3; i >= 0; --i) {
      v4d t[G], u[G];
      for (int q = 0; q < G; ++q) {
        const v4d& mr = kMIsL21 ? r[q][i] : m_rows[q][i];
        v4d ar, amr;
        abs4(r[q][i], ar);
        abs4(mr, amr);
        s[q] += r[q][i];
        a[q] += ar;
        t[q] = s[q] * mr;
        u[q] = a[q] * amr;
      }
      add_row(j - 4 + i, t, u);
    }
  }
}

// Groups g, g + 1, ..., g + G - 1 over one chunk, their suffix carries
// loaded from and stored back to `carry`.
template <bool kMIsL21, int G>
__attribute__((always_inline)) inline void walk_chunk(
    ConstMatrixView l21, ConstMatrixView m, index_t g, index_t lo,
    index_t hi, real_t* carry, real_t* lanes) {
  real_t* cg = carry + 8 * static_cast<std::size_t>(g);
  v4d s[G], a[G];
  for (int q = 0; q < G; ++q) {
    __builtin_memcpy(&s[q], cg + 8 * q, sizeof(v4d));
    __builtin_memcpy(&a[q], cg + 8 * q + 4, sizeof(v4d));
  }
  const std::size_t k = 4 * static_cast<std::size_t>(g);
  const std::size_t ld = static_cast<std::size_t>(l21.ld);
  const std::size_t mld = static_cast<std::size_t>(m.ld);
  walk_group<kMIsL21, G>(l21.data + k * ld, ld, m.data + k * mld, mld, lo,
                         hi, lanes, s, a);
  for (int q = 0; q < G; ++q) {
    __builtin_memcpy(cg + 8 * q, &s[q], sizeof(v4d));
    __builtin_memcpy(cg + 8 * q + 4, &a[q], sizeof(v4d));
  }
}

template <bool kMIsL21>
__attribute__((always_inline)) inline void walk_groups(
    ConstMatrixView l21, ConstMatrixView m, real_t* pred, real_t* scale,
    real_t* carry, real_t* lanes) {
  const index_t b = l21.rows;
  const index_t groups = l21.cols / 4;
  for (index_t hi = b; hi > 0;) {
    const index_t lo = (hi - 1) / kWalkRows * kWalkRows;
    const std::size_t rows = static_cast<std::size_t>(hi - lo);
    std::fill(lanes, lanes + 8 * rows, 0.0);
    index_t g = 0;
    for (; g + 2 <= groups; g += 2) {
      walk_chunk<kMIsL21, 2>(l21, m, g, lo, hi, carry, lanes);
    }
    if (g < groups) walk_chunk<kMIsL21, 1>(l21, m, g, lo, hi, carry, lanes);
    for (std::size_t r = 0; r < rows; ++r) {
      const real_t* l = lanes + 8 * r;
      pred[lo + static_cast<index_t>(r)] -= (l[0] + l[1]) + (l[2] + l[3]);
      scale[lo + static_cast<index_t>(r)] += (l[4] + l[5]) + (l[6] + l[7]);
    }
    hi = lo;
  }
}

// The R < 4 columns from k0 on, past the last group of four: each keeps
// its own suffix sums, and each row takes their products in column order,
// as one column at a time would add them; side by side, their add chains
// overlap instead of running one after the other.
template <int R>
__attribute__((always_inline)) inline void walk_rest(
    ConstMatrixView l21, ConstMatrixView m, index_t k0, real_t* pred,
    real_t* scale, ColSums& l21cols) {
  const real_t* c[R];
  const real_t* mc[R];
  real_t s[R], a[R];
  for (int q = 0; q < R; ++q) {
    c[q] = l21.data + static_cast<std::size_t>(k0 + q) * l21.ld;
    mc[q] = m.data + static_cast<std::size_t>(k0 + q) * m.ld;
    s[q] = 0.0;
    a[q] = 0.0;
  }
  for (index_t j = l21.rows; j-- > 0;) {
    for (int q = 0; q < R; ++q) {
      s[q] += c[q][j];
      a[q] += std::abs(c[q][j]);
      pred[j] -= s[q] * mc[q][j];
      scale[j] += a[q] * std::abs(mc[q][j]);
    }
  }
  for (int q = 0; q < R; ++q) {
    l21cols.sum[static_cast<std::size_t>(k0 + q)] = s[q];
    l21cols.abs[static_cast<std::size_t>(k0 + q)] = a[q];
  }
}

PARFACT_ABFT_CLONES
void predict_update_lower(ConstMatrixView l21, ConstMatrixView m,
                          real_t* pred, real_t* scale, ColSums& l21cols,
                          std::vector<real_t>& work) {
  const index_t b = l21.rows;
  const index_t p = l21.cols;
  const index_t groups = p / 4;
  // work = [per group: suffix carries s, a][per chunk row: eight lanes]
  work.assign(8 * static_cast<std::size_t>(groups) +
                  8 * static_cast<std::size_t>(std::min(b, kWalkRows)),
              0.0);
  real_t* carry = work.data();
  real_t* lanes = carry + 8 * static_cast<std::size_t>(groups);
  if (m.data == l21.data && m.ld == l21.ld) {  // Cholesky: M is L21
    walk_groups<true>(l21, m, pred, scale, carry, lanes);
  } else {
    walk_groups<false>(l21, m, pred, scale, carry, lanes);
  }
  l21cols.reset(p);
  for (index_t k = 0; k < 4 * groups; ++k) {
    const real_t* cg = carry + 8 * static_cast<std::size_t>(k / 4);
    l21cols.sum[static_cast<std::size_t>(k)] = cg[k % 4];
    l21cols.abs[static_cast<std::size_t>(k)] = cg[4 + k % 4];
  }
  switch (p - 4 * groups) {
    case 3: walk_rest<3>(l21, m, 4 * groups, pred, scale, l21cols); break;
    case 2: walk_rest<2>(l21, m, 4 * groups, pred, scale, l21cols); break;
    case 1: walk_rest<1>(l21, m, 4 * groups, pred, scale, l21cols); break;
    default: break;
  }
}

// The A11 read-back of the assembly check: `low` receives the lower
// column sums of the p x p block, `sym` the symmetric ones (the strict
// lower part's row sums in column order, then the lower column sum) — the
// POTRF baseline. Values only: both identities take their tolerance scales
// from predicted magnitudes. Columns go in pairs and each pair is read
// once: every row takes column j's value before column j + 1's into its
// row sum, while both column sums gather in eight partial sums each, as in
// sum_abs.
PARFACT_ABFT_CLONES
void a11_sums(ConstMatrixView a11, real_t* low, real_t* sym) {
  const index_t p = a11.cols;
  std::fill(sym, sym + p, 0.0);
  index_t j = 0;
  for (; j + 2 <= p; j += 2) {
    const real_t* c0 = a11.data + static_cast<std::size_t>(j) * a11.ld;
    const real_t* c1 = c0 + a11.ld;
    v4d s0 = {0.0, 0.0, 0.0, 0.0};
    v4d s1 = s0;
    v4d t0 = s0;
    v4d t1 = s0;
    // The next pair's columns stream in while this pair is summed.
    const real_t* n0 = j + 2 < p ? c1 + a11.ld : c0;
    const real_t* n1 = j + 3 < p ? n0 + a11.ld : n0;
    index_t i = j + 2;
    for (; i + 8 <= p; i += 8) {
      __builtin_prefetch(n0 + i + 2);
      __builtin_prefetch(n1 + i + 2);
      v4d x0, x1, y0, y1, r0, r1;
      __builtin_memcpy(&x0, c0 + i, sizeof x0);
      __builtin_memcpy(&x1, c0 + i + 4, sizeof x1);
      __builtin_memcpy(&y0, c1 + i, sizeof y0);
      __builtin_memcpy(&y1, c1 + i + 4, sizeof y1);
      __builtin_memcpy(&r0, sym + i, sizeof r0);
      __builtin_memcpy(&r1, sym + i + 4, sizeof r1);
      r0 = (r0 + x0) + y0;
      r1 = (r1 + x1) + y1;
      __builtin_memcpy(sym + i, &r0, sizeof r0);
      __builtin_memcpy(sym + i + 4, &r1, sizeof r1);
      s0 += x0;
      s1 += x1;
      t0 += y0;
      t1 += y1;
    }
    for (; i < p; ++i) {
      sym[i] = (sym[i] + c0[i]) + c1[i];
      s0[0] += c0[i];
      t0[0] += c1[i];
    }
    const real_t rest0 = ((s0[0] + s0[1]) + (s0[2] + s0[3])) +
                         ((s1[0] + s1[1]) + (s1[2] + s1[3]));
    const real_t rest1 = ((t0[0] + t0[1]) + (t0[2] + t0[3])) +
                         ((t1[0] + t1[1]) + (t1[2] + t1[3]));
    low[j] = (c0[j] + c0[j + 1]) + rest0;
    low[j + 1] = c1[j + 1] + rest1;
    sym[j] += low[j];
    sym[j + 1] += c0[j + 1];
    sym[j + 1] += low[j + 1];
  }
  if (j < p) {  // odd p: the last column has only its diagonal
    const real_t* col = a11.data + static_cast<std::size_t>(j) * a11.ld;
    low[j] = col[j];
    sym[j] += low[j];
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
      case detail::FrontStage::kPanel: {
        // Every post-kernel identity is checked here, while L11 and L21
        // are still cache-hot from the panel solve; the trailing update
        // only runs on a front that passed.
        maybe_inject(SdcSite::kTrsm, f);
        const index_t p = sym_.sn_cols(f.s);
        if (sym_.sn_below(f.s) > 0) {
          predict_update(f);
        } else {
          msums_.reset(p);
        }
        return check_stages(f.s, f.panel.block(0, 0, p, p), f.boosted);
      }
      case detail::FrontStage::kUpdated:
        break;
    }
    maybe_inject(SdcSite::kUpdate, f);
    record_checksums(f.s);
    // The children's blocks are verified and consumed; any later repair
    // that revisits their subtrees regenerates the predictions with them.
    for (const index_t c : sym_.children(f.s)) carried_[c] = ColSums{};
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
  // Fills asm_pred_ (predicted lower A11 sums), a11_sym_ (actual SYMMETRIC
  // A11 sums — the POTRF baseline, built from the same read), a21_pre_
  // (A21 column sums) and u0_ (lower update-seed sums). The magnitudes that
  // scale the tolerances are predicted, never summed from a read: a child
  // column's carried magnitude prediction bounds each part of that column.
  // On mismatch the caller re-verifies the children's blocks and
  // recomputes any corrupt child subtree.
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
    // Where a column's rows cross `bound` varies from column to column, so
    // each entry goes to both sums, as itself or as +0.0 (which leaves a
    // sum unchanged): a branch on it would mispredict about once a column.
    for (index_t j = first; j < bound; ++j) {
      const std::size_t lj = static_cast<std::size_t>(j - first);
      for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
        const bool a11 = a.row_ind[static_cast<std::size_t>(q)] < bound;
        const real_t v = a.values[static_cast<std::size_t>(q)];
        const real_t in = a11 ? v : 0.0;
        const real_t out = a11 ? 0.0 : v;
        asm_pred_.sum[lj] += in;
        asm_pred_.abs[lj] += std::abs(in);
        a21_pre_.sum[lj] += out;
        a21_pre_.abs[lj] += std::abs(out);
      }
    }
    const auto prows = sym_.below_rows(s);
    std::size_t ic = 0;
    for (const index_t c : sym_.children(s)) {
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
        const real_t* o = cs.data() + uc * 2;
        const real_t mag = want.abs[uc];
        if (!column_ok(o[0] + o[1], want.sum[uc], mag)) return false;
        const index_t g = crows[cj];
        if (g < bound) {
          // Panel-mapped child column: its panel-landing rows are A11
          // rows, its seed-landing rows are A21 rows of this front.
          const index_t lj = g - first;
          asm_pred_.sum[lj] += o[0];
          asm_pred_.abs[lj] += mag;
          a21_pre_.sum[lj] += o[1];
          a21_pre_.abs[lj] += mag;
        } else {
          while (prows[pi] < g) ++pi;
          u0_.sum[pi] += o[1];
          u0_.abs[pi] += mag;
        }
      }
    }
    // Read back the A11 block only: lower sums feed the per-column
    // assembly comparison; the symmetric completion (a second sweep of the
    // L1-hot column) builds the POTRF baseline from the same read.
    a11_low_.resize(static_cast<std::size_t>(p));
    a11_sym_.resize(static_cast<std::size_t>(p));
    a11_sums(panel.block(0, 0, p, p), a11_low_.data(), a11_sym_.data());
    for (index_t j = 0; j < p; ++j) {
      const std::size_t uj = static_cast<std::size_t>(j);
      if (!column_ok(a11_low_[uj], asm_pred_.sum[uj], asm_pred_.abs[uj])) {
        return false;
      }
    }
    return true;
  }

  // Pass 1 of the post-kernel verification: walks L21/M once (descending,
  // predict_update_lower), producing the UPDATE-identity prediction
  //
  //   UPDATE identity: lowcols(U') = lowcols(U0) − suffix(L21)·M  (per row)
  //
  // plus the L21 column sums as a byproduct — for Cholesky those ARE the M
  // sums the TRSM identity weights with. The update block itself is never
  // read here: the prediction is carried to the parent, which compares it
  // against the block's actual sums during its own extend-add (the block's
  // one and only read) — see check_assembly.
  void predict_update(const Front& f) {
    const index_t p = sym_.sn_cols(f.s);
    const index_t b = sym_.sn_below(f.s);
    const ConstMatrixView l21 = f.panel.block(p, 0, b, p);
    pred_.assign(u0_.sum.begin(), u0_.sum.end());
    scale_.assign(u0_.abs.begin(), u0_.abs.end());
    if (kind_ == FactorKind::kCholesky) {
      predict_update_lower(l21, f.m, pred_.data(), scale_.data(), msums_,
                           walk_);
    } else {
      predict_update_lower(l21, f.m, pred_.data(), scale_.data(), l21sums_,
                           walk_);
      rect_colsums(f.m, msums_);
    }
  }

  // Pass 2: walks L11 once, serving both triangular identities
  //
  //   POTRF identity:  e'A11 = (e'L11) L11'        (LDLᵀ: weight by D)
  //   TRSM identity:   colsums(M) L11' = colsums(A21),  M = A21 L11⁻ᵀ
  //
  // Deferring the POTRF comparison until after the panel solve ran costs
  // wasted kernel work on a corrupt front (rare), but the retry
  // reassembles from scratch so the healed result is still bitwise
  // identical.
  //
  // The POTRF identity is skipped when static pivoting boosted a pivot in
  // this front — the boost deliberately breaks A11 = L11 L11'. The TRSM
  // identity holds for whatever L11 the diagonal stage produced. For LDLᵀ
  // the panel was rescaled to L21 = M D⁻¹, and the rescale is verified
  // too: colsums(L21)·d = colsums(M).
  [[nodiscard]] bool check_stages(index_t s, ConstMatrixView l11,
                                  count_t boosted) {
    const index_t p = l11.cols;
    const index_t b = sym_.sn_below(s);
    const index_t first = sym_.sn_start[s];
    if (boosted == 0) ++checks_;  // POTRF
    if (b > 0) ++checks_;         // TRSM (UPDATE is counted at consumption)

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
    // Column pairs share one accumulation sweep (the weights of both are
    // known once their sums are).
    for (index_t k = 0; k < p; k += 2) {
      const index_t cols = std::min<index_t>(2, p - k);
      real_t w[8];
      for (index_t q = 0; q < cols; ++q) {
        const index_t kq = k + q;
        const real_t* col = l11.data + static_cast<std::size_t>(kq) * l11.ld;
        const std::size_t uk = static_cast<std::size_t>(kq);
        sum_abs(col + kq, p - kq, l11sums_.sum[uk], l11sums_.abs[uk]);
        real_t w1 = l11sums_.sum[uk];
        real_t w1a = l11sums_.abs[uk];
        if (kind_ == FactorKind::kLdlt) {
          const real_t dk = d_[static_cast<std::size_t>(first + kq)];
          w1 *= dk;
          w1a *= std::abs(dk);
        }
        w[4 * q + 0] = w1;
        w[4 * q + 1] = w1a;
        w[4 * q + 2] = msums_.sum[uk];
        w[4 * q + 3] = msums_.abs[uk];
      }
      const real_t* c0 = l11.data + static_cast<std::size_t>(k) * l11.ld + k;
      accum_two_weighted_pair(p2 + k, s2 + k, p3 + k, s3 + k, c0,
                              cols == 2 ? c0 + l11.ld : c0, p - k, w, b > 0);
    }
    if (boosted == 0) {
      for (index_t j = 0; j < p; ++j) {
        const std::size_t uj = static_cast<std::size_t>(j);
        // s2 bounds the symmetric |A11| column sum (|L11|·|L11|ᵀ·e, with
        // |D| for LDLᵀ), so 2·s2 bounds both sides' rounding.
        if (!column_ok(a11_sym_[uj], p2[j], 2.0 * s2[j])) {
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
  std::vector<ColSums> carried_;  ///< predicted update-block sums + scales
  detail::AssemblySums asm_sums_;  ///< child split sums from the extend-add
  bool injection_fired_ = false;
  count_t checks_ = 0;
  count_t detections_ = 0;

  // Per-front check scratch, reused across fronts so the O(front^2) checks
  // never allocate. Only valid within one front's stage sequence.
  ColSums asm_pred_;   ///< predicted lower A11 sums (A + carried)
  std::vector<real_t> a11_low_;  ///< actual lower A11 sums (assembly check)
  std::vector<real_t> a11_sym_;  ///< actual symmetric A11 sums (POTRF)
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
  std::vector<real_t> walk_;    ///< predict_update_lower's scratch
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
  // per child slot, the largest 2·cb block it was sized for; the per-front
  // scratch is four ColSums (five for LDLᵀ) and six vectors of width p,
  // one ColSums and two vectors of height b, at the widest front, plus the
  // walk's scratch (2p + 8·kWalkRows).
  std::size_t live = 0;
  std::size_t reals = 0;
  std::size_t max_p = 0;
  std::size_t max_b = 0;
  std::vector<std::size_t> slot;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const auto b = static_cast<std::size_t>(sym.sn_below(s));
    live += 2 * b;
    reals = std::max(reals, live);
    const auto children = sym.children(s);
    slot.resize(std::max(slot.size(), children.size()));
    for (std::size_t i = 0; i < children.size(); ++i) {
      const auto cb = static_cast<std::size_t>(sym.sn_below(children[i]));
      live -= 2 * cb;
      slot[i] = std::max(slot[i], 2 * cb);
    }
    max_p = std::max(max_p, static_cast<std::size_t>(sym.sn_cols(s)));
    max_b = std::max(max_b, b);
  }
  reals += (kind == FactorKind::kLdlt ? 18 : 16) * max_p + 4 * max_b +
           8 * static_cast<std::size_t>(kWalkRows);
  for (const std::size_t cap : slot) reals += cap;
  if (checksums) reals += 2 * static_cast<std::size_t>(sym.n);
  // The hooks object, its carried predictions and the per-child sum
  // vectors (at up to twice their count after growth).
  return reals * sizeof(real_t) + sizeof(AbftHooks) +
         static_cast<std::size_t>(sym.n_supernodes) *
             (sizeof(ColSums) + 2 * sizeof(std::vector<real_t>));
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

count_t recompute_subtree(const SymbolicFactor& sym, index_t root,
                          FactorKind kind, PivotPolicy pivot,
                          CholeskyFactor& factor,
                          FactorChecksums* checksums) {
  detail::factor_serial(sym, {.factor = &factor}, kind, factor.mutable_diag(),
                        pivot, nullptr, {}, nullptr, nullptr, root);
  const index_t lo = sym.first_descendant(root);
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
