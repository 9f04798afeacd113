// Tests for the sparse module: containers, ops, generators, Matrix Market.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sparse/gen.h"
#include "sparse/io.h"
#include "sparse/ops.h"
#include "sparse/sparse_matrix.h"
#include "support/prng.h"

namespace parfact {
namespace {

SparseMatrix small_full() {
  // [ 4 -1  0 ]
  // [-1  4 -2 ]
  // [ 0 -2  5 ]
  TripletBuilder b(3, 3);
  b.add(0, 0, 4);
  b.add(1, 1, 4);
  b.add(2, 2, 5);
  b.add_symmetric(1, 0, -1);
  b.add_symmetric(2, 1, -2);
  return b.build();
}

TEST(TripletBuilder, SumsDuplicates) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 0, -1.0);
  const SparseMatrix a = b.build();
  a.validate();
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
}

TEST(TripletBuilder, DropZerosOnCancellation) {
  TripletBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(0, 1, -1.0);
  b.add(1, 1, 2.0);
  EXPECT_EQ(b.build(false).nnz(), 2);
  EXPECT_EQ(b.build(true).nnz(), 1);
}

TEST(TripletBuilder, EmptyMatrix) {
  TripletBuilder b(0, 0);
  const SparseMatrix a = b.build();
  a.validate();
  EXPECT_EQ(a.nnz(), 0);
}

TEST(SparseMatrix, ValidateRejectsUnsortedRows) {
  SparseMatrix a(2, 2);
  a.col_ptr = {0, 2, 2};
  a.row_ind = {1, 0};
  a.values = {1.0, 2.0};
  EXPECT_THROW(a.validate(), Error);
}

TEST(SparseMatrix, ValidateRejectsBadColPtr) {
  SparseMatrix a(2, 2);
  a.col_ptr = {0, 2, 1};
  a.row_ind = {0, 1};
  a.values = {1.0, 2.0};
  EXPECT_THROW(a.validate(), Error);
}

TEST(Ops, TransposeRoundTrip) {
  Prng rng(3);
  TripletBuilder b(7, 5);
  for (int k = 0; k < 20; ++k) {
    b.add(rng.next_index(7), rng.next_index(5), rng.next_real(-1, 1));
  }
  const SparseMatrix a = b.build();
  const SparseMatrix tt = transpose(transpose(a));
  tt.validate();
  EXPECT_EQ(a.col_ptr, tt.col_ptr);
  EXPECT_EQ(a.row_ind, tt.row_ind);
  EXPECT_EQ(a.values, tt.values);
}

TEST(Ops, TransposeEntries) {
  const SparseMatrix a = small_full();
  const SparseMatrix t = transpose(a);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(a.at(i, j), t.at(j, i));
  }
}

TEST(Ops, SymmetryCheck) {
  EXPECT_TRUE(is_symmetric(small_full()));
  TripletBuilder b(2, 2);
  b.add(0, 1, 1.0);
  EXPECT_FALSE(is_symmetric(b.build()));
}

TEST(Ops, LowerAndSymmetrizeRoundTrip) {
  const SparseMatrix full = small_full();
  const SparseMatrix low = lower_triangle(full);
  low.validate();
  EXPECT_EQ(low.nnz(), 5);
  const SparseMatrix back = symmetrize_full(low);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(full.at(i, j), back.at(i, j));
    }
  }
}

TEST(Ops, SymmetrizeRejectsNonLowerInput) {
  EXPECT_THROW(symmetrize_full(small_full()), Error);
}

TEST(Ops, PermuteSymmetric) {
  const SparseMatrix a = small_full();
  const std::vector<index_t> perm{2, 0, 1};  // new -> old
  const SparseMatrix b = permute_symmetric(a, perm);
  b.validate();
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(b.at(i, j), a.at(perm[i], perm[j]));
    }
  }
}

// --- Counting-sort primitives against the implementations they replaced ---

// symmetrize_full as it was: every entry through a TripletBuilder, whose
// build() sorts each column and sums each entry as 0.0 + v.
SparseMatrix reference_symmetrize_full(const SparseMatrix& lower) {
  TripletBuilder b(lower.rows, lower.cols);
  for (index_t j = 0; j < lower.cols; ++j) {
    for (index_t p = lower.col_ptr[j]; p < lower.col_ptr[j + 1]; ++p) {
      b.add_symmetric(lower.row_ind[p], j, lower.values[p]);
    }
  }
  return b.build();
}

// permute_symmetric as it was: scatter each column, then sort its rows.
SparseMatrix reference_permute_symmetric(const SparseMatrix& a,
                                         std::span<const index_t> perm) {
  const std::vector<index_t> inv = invert_permutation(perm);
  SparseMatrix b(a.rows, a.cols);
  b.row_ind.resize(static_cast<std::size_t>(a.nnz()));
  b.values.resize(static_cast<std::size_t>(a.nnz()));
  for (index_t new_j = 0; new_j < a.cols; ++new_j) {
    const index_t old_j = perm[new_j];
    b.col_ptr[new_j + 1] =
        b.col_ptr[new_j] + (a.col_ptr[old_j + 1] - a.col_ptr[old_j]);
  }
  std::vector<std::pair<index_t, real_t>> col;
  for (index_t new_j = 0; new_j < a.cols; ++new_j) {
    const index_t old_j = perm[new_j];
    col.clear();
    for (index_t p = a.col_ptr[old_j]; p < a.col_ptr[old_j + 1]; ++p) {
      col.emplace_back(inv[a.row_ind[p]], a.values[p]);
    }
    std::sort(col.begin(), col.end());
    index_t q = b.col_ptr[new_j];
    for (const auto& [r, v] : col) {
      b.row_ind[q] = r;
      b.values[q] = v;
      ++q;
    }
  }
  return b;
}

// lower_triangle as it was: push_back growth.
SparseMatrix reference_lower_triangle(const SparseMatrix& a) {
  SparseMatrix l(a.rows, a.cols);
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      if (a.row_ind[p] >= j) {
        l.row_ind.push_back(a.row_ind[p]);
        l.values.push_back(a.values[p]);
      }
    }
    l.col_ptr[j + 1] = static_cast<index_t>(l.row_ind.size());
  }
  return l;
}

std::uint64_t bits(real_t v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const SparseMatrix& a, const SparseMatrix& b) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  ASSERT_EQ(a.col_ptr, b.col_ptr);
  ASSERT_EQ(a.row_ind, b.row_ind);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t q = 0; q < a.values.size(); ++q) {
    ASSERT_EQ(bits(a.values[q]), bits(b.values[q])) << "entry " << q;
  }
}

// A value drawn from [-1, 1], or an explicit 0.0 or −0.0.
real_t kernel_value(Prng& rng) {
  switch (rng.next_below(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    default:
      return rng.next_real(-1, 1);
  }
}

// Lower-stored square matrix, rows sorted. Column j stores each row below
// the diagonal with probability `density` (every row if j == dense_col),
// and its diagonal unless `no_diagonal_every` > 0 divides j.
SparseMatrix random_lower(index_t n, double density, index_t dense_col,
                          Prng& rng, index_t no_diagonal_every = 0) {
  SparseMatrix l(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      const bool keep =
          i == j ? no_diagonal_every == 0 || j % no_diagonal_every != 0
                 : j == dense_col || rng.next_real(0, 1) < density;
      if (keep) {
        l.row_ind.push_back(i);
        l.values.push_back(kernel_value(rng));
      }
    }
    l.col_ptr[j + 1] = static_cast<index_t>(l.row_ind.size());
  }
  l.validate();
  return l;
}

// Square matrix with no symmetry at all, rows sorted.
SparseMatrix random_general(index_t n, double density, Prng& rng) {
  SparseMatrix a(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      if (rng.next_real(0, 1) < density) {
        a.row_ind.push_back(i);
        a.values.push_back(kernel_value(rng));
      }
    }
    a.col_ptr[j + 1] = static_cast<index_t>(a.row_ind.size());
  }
  return a;
}

std::vector<index_t> random_permutation(index_t n, Prng& rng) {
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  return perm;
}

// The patterns the kernel tests run: the degenerate orders, a diagonal, a
// dense column, columns with no off-diagonal entry (and some with no entry
// at all), random fill levels, and generator matrices.
std::vector<SparseMatrix> kernel_patterns() {
  Prng rng(2024);
  std::vector<SparseMatrix> patterns;
  patterns.push_back(SparseMatrix(0, 0));
  patterns.push_back(random_lower(1, 0.0, -1, rng));
  patterns.push_back(random_lower(1, 0.0, -1, rng, 1));  // 1 x 1, no entry
  patterns.push_back(random_lower(23, 0.0, -1, rng));    // diagonal only
  patterns.push_back(random_lower(40, 0.02, 0, rng));    // dense column 0
  patterns.push_back(random_lower(40, 0.05, 17, rng));   // dense column 17
  patterns.push_back(random_lower(60, 0.01, -1, rng, 3));
  for (const double density : {0.05, 0.2, 0.6}) {
    patterns.push_back(random_lower(50, density, -1, rng));
  }
  patterns.push_back(grid_laplacian_3d(4, 3, 3, 27));
  patterns.push_back(elasticity_3d(2, 2, 1));
  return patterns;
}

TEST(LowerKernel, SymmetrizeAndLowerTriangleMatchReferences) {
  for (const SparseMatrix& lower : kernel_patterns()) {
    SCOPED_TRACE("n = " + std::to_string(lower.rows));
    const SparseMatrix full = symmetrize_full(lower);
    full.validate();
    expect_same_bits(full, reference_symmetrize_full(lower));
    expect_same_bits(lower_triangle(full), reference_lower_triangle(full));
  }
  Prng rng(7);
  for (const index_t n : {0, 1, 9, 33}) {
    const SparseMatrix a = random_general(n, 0.3, rng);
    expect_same_bits(lower_triangle(a), reference_lower_triangle(a));
  }
}

TEST(LowerKernel, PermuteSymmetricMatchesSortReference) {
  Prng rng(11);
  for (const SparseMatrix& lower : kernel_patterns()) {
    SCOPED_TRACE("n = " + std::to_string(lower.rows));
    const SparseMatrix full = symmetrize_full(lower);
    const SparseMatrix general = random_general(lower.rows, 0.1, rng);
    for (int trial = 0; trial < 5; ++trial) {
      const std::vector<index_t> perm = random_permutation(lower.rows, rng);
      const SparseMatrix b = permute_symmetric(full, perm);
      b.validate();
      expect_same_bits(b, reference_permute_symmetric(full, perm));
      expect_same_bits(permute_symmetric(general, perm),
                       reference_permute_symmetric(general, perm));
    }
  }
}

// permute_lower equals the full-storage chain it replaces, except that it
// copies values raw where the chain's TripletBuilder sum turned −0.0 into
// +0.0; `source` names each entry's input position, which the old value
// map found by binary search.
TEST(LowerKernel, PermuteLowerMatchesFullStorageChain) {
  Prng rng(13);
  for (const SparseMatrix& lower : kernel_patterns()) {
    SCOPED_TRACE("n = " + std::to_string(lower.rows));
    for (int trial = 0; trial < 5; ++trial) {
      const std::vector<index_t> perm = random_permutation(lower.rows, rng);
      std::vector<index_t> source;
      const SparseMatrix b = permute_lower(lower, perm, &source);
      b.validate();
      const SparseMatrix chain = reference_lower_triangle(
          reference_permute_symmetric(reference_symmetrize_full(lower), perm));
      ASSERT_EQ(b.col_ptr, chain.col_ptr);
      ASSERT_EQ(b.row_ind, chain.row_ind);
      ASSERT_EQ(source.size(), b.values.size());
      for (index_t j = 0; j < b.cols; ++j) {
        for (index_t q = b.col_ptr[j]; q < b.col_ptr[j + 1]; ++q) {
          const index_t oi = perm[b.row_ind[q]];
          const index_t oj = perm[j];
          const index_t c = std::min(oi, oj);
          const auto begin = lower.row_ind.begin() + lower.col_ptr[c];
          const auto end = lower.row_ind.begin() + lower.col_ptr[c + 1];
          const auto it = std::lower_bound(begin, end, std::max(oi, oj));
          ASSERT_TRUE(it != end && *it == std::max(oi, oj));
          const auto src = static_cast<index_t>(it - lower.row_ind.begin());
          ASSERT_EQ(source[q], src) << "entry " << q;
          ASSERT_EQ(bits(b.values[q]), bits(lower.values[src]));
          ASSERT_EQ(bits(chain.values[q]), bits(0.0 + lower.values[src]));
        }
      }
      expect_same_bits(permute_lower(lower, perm), b);
    }
  }
}

TEST(LowerKernel, NormInfSymmetricMatchesFullNorm) {
  for (const SparseMatrix& lower : kernel_patterns()) {
    EXPECT_EQ(bits(norm_inf_symmetric(lower)),
              bits(norm_inf(reference_symmetrize_full(lower))))
        << "n = " << lower.rows;
  }
}

TEST(LowerKernel, LowerPrimitivesRejectNonLowerInput) {
  const std::vector<index_t> perm{2, 0, 1};
  EXPECT_THROW((void)permute_lower(small_full(), perm), Error);
  EXPECT_THROW((void)norm_inf_symmetric(small_full()), Error);
}

TEST(Ops, PermutationHelpers) {
  const std::vector<index_t> perm{2, 0, 1};
  EXPECT_TRUE(is_permutation(perm));
  const std::vector<index_t> bad{0, 0, 1};
  EXPECT_FALSE(is_permutation(bad));
  const std::vector<index_t> inv = invert_permutation(perm);
  for (index_t i = 0; i < 3; ++i) EXPECT_EQ(inv[perm[i]], i);
}

TEST(Ops, SpmvMatchesDense) {
  const SparseMatrix a = small_full();
  const std::vector<real_t> x{1.0, 2.0, -1.0};
  std::vector<real_t> y(3);
  spmv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 4 * 1 - 1 * 2);
  EXPECT_DOUBLE_EQ(y[1], -1 * 1 + 4 * 2 - 2 * -1);
  EXPECT_DOUBLE_EQ(y[2], -2 * 2 + 5 * -1);
}

TEST(Ops, SymmetricSpmvMatchesFullSpmv) {
  const SparseMatrix full = grid_laplacian_2d(6, 5, 5);
  const SparseMatrix fullsym = symmetrize_full(full);
  Prng rng(11);
  std::vector<real_t> x(static_cast<std::size_t>(full.rows));
  for (auto& v : x) v = rng.next_real(-1, 1);
  std::vector<real_t> y1(x.size()), y2(x.size());
  spmv(fullsym, x, y1);
  spmv_symmetric_lower(full, x, y2);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

TEST(Ops, Norms) {
  const SparseMatrix a = small_full();
  EXPECT_DOUBLE_EQ(norm_inf(a), 7.0);  // row 1: 1+4+2
  EXPECT_NEAR(norm_frobenius(a),
              std::sqrt(16 + 16 + 25 + 2 * 1 + 2 * 4.0), 1e-15);
}

TEST(Ops, VectorHelpers) {
  const std::vector<real_t> x{1, 2, 3};
  std::vector<real_t> y{1, 1, 1};
  EXPECT_DOUBLE_EQ(dot(x, y), 6.0);
  EXPECT_DOUBLE_EQ(norm2(y), std::sqrt(3.0));
  EXPECT_DOUBLE_EQ(norm_inf(std::span<const real_t>(x)), 3.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[2], 7.0);
}

// --- Generators -----------------------------------------------------------

class GridGenTest : public ::testing::TestWithParam<int> {};

TEST_P(GridGenTest, Laplacian2dStructure) {
  const int stencil = GetParam();
  const SparseMatrix a = grid_laplacian_2d(5, 4, stencil);
  a.validate();
  EXPECT_EQ(a.rows, 20);
  const SparseMatrix full = symmetrize_full(a);
  EXPECT_TRUE(is_symmetric(full));
  // Interior node degree: 4 (5-pt) or 8 (9-pt) neighbors.
  const index_t interior = 1 * 5 + 2;  // (x=2, y=1)
  index_t deg = 0;
  for (index_t p = full.col_ptr[interior]; p < full.col_ptr[interior + 1];
       ++p) {
    if (full.row_ind[p] != interior) ++deg;
  }
  EXPECT_EQ(deg, stencil == 5 ? 4 : 8);
}

INSTANTIATE_TEST_SUITE_P(Stencils, GridGenTest, ::testing::Values(5, 9));

TEST(Gen, Laplacian3dSizes) {
  const SparseMatrix a7 = grid_laplacian_3d(4, 3, 2, 7);
  a7.validate();
  EXPECT_EQ(a7.rows, 24);
  const SparseMatrix a27 = grid_laplacian_3d(3, 3, 3, 27);
  a27.validate();
  // Center node of 3^3 grid with 27-stencil couples to all other 26 nodes.
  const SparseMatrix full = symmetrize_full(a27);
  const index_t center = 13;
  EXPECT_EQ(full.col_ptr[center + 1] - full.col_ptr[center], 27);
}

TEST(Gen, LaplaciansAreDiagonallyDominant) {
  for (const SparseMatrix& a :
       {grid_laplacian_2d(7, 7, 5), grid_laplacian_3d(4, 4, 4, 7)}) {
    const SparseMatrix full = symmetrize_full(a);
    for (index_t j = 0; j < full.cols; ++j) {
      real_t diag = 0.0, off = 0.0;
      for (index_t p = full.col_ptr[j]; p < full.col_ptr[j + 1]; ++p) {
        if (full.row_ind[p] == j) {
          diag = full.values[p];
        } else {
          off += std::abs(full.values[p]);
        }
      }
      EXPECT_GT(diag, off);
    }
  }
}

TEST(Gen, ElasticityIsSymmetricWithExpectedSize) {
  const SparseMatrix a = elasticity_3d(2, 2, 2);
  a.validate();
  EXPECT_EQ(a.rows, 3 * 27);
  EXPECT_TRUE(is_symmetric(symmetrize_full(a), 1e-12));
}

TEST(Gen, ElasticityDiagonalPositive) {
  const SparseMatrix a = elasticity_3d(2, 1, 1);
  for (index_t j = 0; j < a.cols; ++j) EXPECT_GT(a.at(j, j), 0.0);
}

TEST(Gen, BandedSpd) {
  const SparseMatrix a = banded_spd(20, 3);
  a.validate();
  EXPECT_EQ(a.rows, 20);
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      EXPECT_LE(a.row_ind[p] - j, 3);
    }
  }
}

TEST(Gen, RandomSpdIsDominant) {
  const SparseMatrix a = random_spd(50, 4, 42);
  a.validate();
  const SparseMatrix full = symmetrize_full(a);
  EXPECT_TRUE(is_symmetric(full, 1e-15));
  for (index_t j = 0; j < full.cols; ++j) {
    real_t diag = 0.0, off = 0.0;
    for (index_t p = full.col_ptr[j]; p < full.col_ptr[j + 1]; ++p) {
      if (full.row_ind[p] == j) {
        diag = full.values[p];
      } else {
        off += std::abs(full.values[p]);
      }
    }
    EXPECT_GT(diag, off);
  }
}

TEST(Gen, RandomSpdDeterministicInSeed) {
  const SparseMatrix a = random_spd(30, 3, 7);
  const SparseMatrix b = random_spd(30, 3, 7);
  EXPECT_EQ(a.row_ind, b.row_ind);
  EXPECT_EQ(a.values, b.values);
  const SparseMatrix c = random_spd(30, 3, 8);
  EXPECT_NE(a.row_ind, c.row_ind);
}

TEST(Gen, TestSuiteScalesDown) {
  const auto suite = test_suite(0.05);
  EXPECT_EQ(suite.size(), 5u);
  for (const auto& p : suite) {
    p.lower.validate();
    EXPECT_GT(p.lower.rows, 0);
    EXPECT_FALSE(p.name.empty());
  }
}

// --- Matrix Market ---------------------------------------------------------

TEST(Io, RoundTripGeneral) {
  Prng rng(4);
  TripletBuilder b(6, 4);
  for (int k = 0; k < 10; ++k) {
    b.add(rng.next_index(6), rng.next_index(4), rng.next_real(-2, 2));
  }
  const SparseMatrix a = b.build();
  std::stringstream ss;
  write_matrix_market(ss, a, /*symmetric=*/false);
  const MatrixMarketData d = read_matrix_market(ss);
  EXPECT_FALSE(d.symmetric);
  EXPECT_EQ(d.matrix.col_ptr, a.col_ptr);
  EXPECT_EQ(d.matrix.row_ind, a.row_ind);
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(d.matrix.values[i], a.values[i]);
  }
}

TEST(Io, RoundTripSymmetric) {
  const SparseMatrix a = grid_laplacian_2d(4, 4, 5);
  std::stringstream ss;
  write_matrix_market(ss, a, /*symmetric=*/true);
  const MatrixMarketData d = read_matrix_market(ss);
  EXPECT_TRUE(d.symmetric);
  EXPECT_EQ(d.matrix.row_ind, a.row_ind);
}

TEST(Io, ReadsPatternAndUpperSymmetric) {
  // Upper-stored symmetric pattern file must normalize to lower storage.
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a comment\n"
      "3 3 3\n"
      "1 1\n"
      "1 2\n"
      "3 3\n");
  const MatrixMarketData d = read_matrix_market(ss);
  EXPECT_TRUE(d.symmetric);
  EXPECT_DOUBLE_EQ(d.matrix.at(1, 0), 1.0);  // (1,2) mirrored to lower
  EXPECT_DOUBLE_EQ(d.matrix.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.matrix.at(2, 2), 1.0);
}

TEST(Io, RejectsGarbage) {
  std::stringstream ss("not a matrix market file\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(Io, RejectsOutOfRangeEntry) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

// Malformed-file pack: every corruption mode must surface as a clean
// parfact::Error naming the offending line — never UB, an infinite loop,
// or a silently misparsed matrix.

namespace {
std::string read_failure_message(const std::string& content) {
  std::stringstream ss(content);
  try {
    (void)read_matrix_market(ss);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}
}  // namespace

TEST(Io, RejectsEmptyStream) {
  EXPECT_NE(read_failure_message("").find("truncated"), std::string::npos);
}

TEST(Io, RejectsMissingSizeLine) {
  const std::string msg = read_failure_message(
      "%%MatrixMarket matrix coordinate real general\n"
      "% only comments follow\n");
  EXPECT_NE(msg.find("size line"), std::string::npos);
}

TEST(Io, RejectsTruncatedEntryList) {
  const std::string msg = read_failure_message(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 5\n"
      "1 1 1.0\n"
      "2 2 1.0\n");
  EXPECT_NE(msg.find("truncated entry list"), std::string::npos);
  EXPECT_NE(msg.find("expected 5 entries, got 2"), std::string::npos);
}

TEST(Io, RejectsNonNumericTokenWithLineNumber) {
  const std::string msg = read_failure_message(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 2\n"
      "1 1 1.0\n"
      "2 banana 1.0\n");
  EXPECT_NE(msg.find("line 4"), std::string::npos);
  EXPECT_NE(msg.find("banana"), std::string::npos);
}

TEST(Io, RejectsPartialNumericToken) {
  // "12abc" must not silently parse as 12.
  const std::string msg = read_failure_message(
      "%%MatrixMarket matrix coordinate real general\n"
      "30 30 1\n"
      "12abc 1 1.0\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos);
  EXPECT_NE(msg.find("malformed"), std::string::npos);
}

TEST(Io, RejectsNonNumericValue) {
  const std::string msg = read_failure_message(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 one\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos);
}

TEST(Io, RejectsNonFiniteValue) {
  const std::string msg = read_failure_message(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 nan\n");
  EXPECT_NE(msg.find("non-finite"), std::string::npos);
}

TEST(Io, RejectsOverflowingDimensions) {
  // 2^40 rows overflows the 32-bit index type and must be rejected before
  // any allocation is attempted.
  const std::string msg = read_failure_message(
      "%%MatrixMarket matrix coordinate real general\n"
      "1099511627776 3 1\n"
      "1 1 1.0\n");
  EXPECT_NE(msg.find("overflow"), std::string::npos);
}

TEST(Io, RejectsIntegerOverflowInSizeLine) {
  const std::string msg = read_failure_message(
      "%%MatrixMarket matrix coordinate real general\n"
      "99999999999999999999999999 3 1\n");
  EXPECT_NE(msg.find("overflow"), std::string::npos);
}

TEST(Io, RejectsNegativeEntryCount) {
  const std::string msg = read_failure_message(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 -1\n");
  EXPECT_NE(msg.find("negative entry count"), std::string::npos);
}

TEST(Io, RejectsTrailingGarbageOnEntryLine) {
  const std::string msg = read_failure_message(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 1\n"
      "1 1 1.0 surprise\n");
  EXPECT_NE(msg.find("trailing garbage"), std::string::npos);
}

TEST(Io, AcceptsBlankLinesBetweenEntries) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "\n"
      "2 2 2\n"
      "1 1 1.0\n"
      "\n"
      "2 2 4.0\n");
  const MatrixMarketData d = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(d.matrix.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.matrix.at(1, 1), 4.0);
}

TEST(Io, SymmetricWriteRequiresLowerStorage) {
  std::stringstream ss;
  EXPECT_THROW(write_matrix_market(ss, small_full(), true), Error);
}

}  // namespace
}  // namespace parfact
