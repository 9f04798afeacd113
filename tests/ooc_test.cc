// Tests for the out-of-core factorization and the Schur complement API.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "api/schur.h"
#include "dense/kernels.h"
#include "api/solver.h"
#include "mf/multifrontal.h"
#include "mf/ooc.h"
#include "solve/solve.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/prng.h"
#include "support/status.h"

namespace parfact {
namespace {

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

std::string scratch_path(const char* name) {
  return std::string("/tmp/parfact_ooc_test_") + name + ".bin";
}

TEST(Ooc, PanelsMatchInCoreFactor) {
  const SparseMatrix a = grid_laplacian_2d(15, 14, 5);
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor in_core = multifrontal_factor(sym);
  FactorStats stats;
  const OocCholeskyFactor ooc =
      multifrontal_factor_ooc(sym, scratch_path("match"), &stats);
  // Disk footprint = full (rows x cols) panels, which is at least the
  // stored factor entries.
  EXPECT_GE(ooc.bytes_on_disk(),
            sym.nnz_stored * static_cast<count_t>(sizeof(real_t)));

  std::vector<real_t> buf;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t f = sym.front_order(s);
    const index_t p = sym.sn_cols(s);
    buf.assign(static_cast<std::size_t>(f) * p, 0.0);
    MatrixView panel{buf.data(), f, p, f};
    ooc.read_panel(s, panel);
    const ConstMatrixView ref = in_core.panel(s);
    for (index_t j = 0; j < p; ++j) {
      for (index_t i = j; i < f; ++i) {
        ASSERT_EQ(panel.at(i, j), ref.at(i, j)) << "sn " << s;
      }
    }
  }
}

// More right-hand sides than one RHS block: the spilled factor goes
// through the same block partition and sweeps as the resident one.
TEST(Ooc, SolveMatchesInCore) {
  const SparseMatrix a = elasticity_3d(4, 3, 3);
  const SymbolicFactor sym = analyze_nested_dissection(a);
  const CholeskyFactor in_core = multifrontal_factor(sym);
  const OocCholeskyFactor ooc =
      multifrontal_factor_ooc(sym, scratch_path("solve"));
  const SolveSchedule schedule(sym);
  const index_t nrhs = schedule.rhs_block + 5;
  SolveWorkspace workspace;
  std::vector<real_t> b = random_vector(sym.n * nrhs, 7);
  std::vector<real_t> x1 = b;
  std::vector<real_t> x2 = b;
  solve_in_place(in_core, MatrixView{x1.data(), sym.n, nrhs, sym.n}, schedule,
                 workspace);
  solve_in_place(ooc, MatrixView{x2.data(), sym.n, nrhs, sym.n}, schedule,
                 workspace);
  for (std::size_t i = 0; i < x1.size(); ++i) ASSERT_EQ(x1[i], x2[i]);
}

TEST(Ooc, ResidentMemoryBelowFactorAndRatioImprovesWithSize) {
  // The resident peak (active front + update stack) must be below the
  // factor size, and the ratio must improve as the problem grows — the
  // point of the OOC mode.
  const auto ratio = [](index_t g) {
    const SparseMatrix a = grid_laplacian_3d(g, g, g, 7);
    const SymbolicFactor sym = analyze_nested_dissection(a);
    FactorStats stats;
    const OocCholeskyFactor ooc =
        multifrontal_factor_ooc(sym, scratch_path("mem"), &stats);
    EXPECT_GT(ooc.bytes_on_disk(),
              sym.nnz_stored * static_cast<count_t>(sizeof(real_t)));
    return static_cast<double>(stats.peak_update_bytes) /
           static_cast<double>(ooc.bytes_on_disk());
  };
  // Panel-level OOC keeps the active front + update stack resident, so the
  // resident fraction stays clearly below 1 (it does not vanish: the root
  // front shares the factor's asymptotic growth on 3-D problems).
  EXPECT_LT(ratio(10), 0.85);
  EXPECT_LT(ratio(16), 0.85);
}

TEST(Ooc, FileIsRemovedOnDestruction) {
  const std::string path = scratch_path("cleanup");
  {
    const SparseMatrix a = banded_spd(30, 2);
    const SymbolicFactor sym = analyze(a);
    const OocCholeskyFactor ooc = multifrontal_factor_ooc(sym, path);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(Ooc, ChecksumDetectsExternalCorruption) {
  const std::string path = scratch_path("corrupt");
  const SparseMatrix a = grid_laplacian_2d(10, 10, 5);
  const SymbolicFactor sym = analyze(a);
  const OocCholeskyFactor ooc = multifrontal_factor_ooc(sym, path);

  // Clean read-back works.
  const index_t f0 = sym.front_order(0);
  const index_t p0 = sym.sn_cols(0);
  std::vector<real_t> buf(static_cast<std::size_t>(f0) * p0, 0.0);
  MatrixView panel{buf.data(), f0, p0, f0};
  ooc.read_panel(0, panel);

  // Corrupt the whole scratch file behind the factor's back (a torn write,
  // bit rot, or another process scribbling on the spill path).
  {
    std::FILE* fp = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 0, SEEK_END);
    const long size = std::ftell(fp);
    ASSERT_GT(size, 0);
    std::fseek(fp, 0, SEEK_SET);
    std::vector<unsigned char> junk(static_cast<std::size_t>(size), 0xA5);
    ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), fp), junk.size());
    std::fclose(fp);
  }

  // The checksum must catch it — after the one re-read retry — and
  // diagnose the panel, never return garbage numbers.
  try {
    ooc.read_panel(0, panel);
    FAIL() << "corrupted panel read succeeded";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
    EXPECT_EQ(e.status().failed_supernode, 0);
    EXPECT_NE(e.status().message.find("checksum mismatch"),
              std::string::npos);
  }
}

// Byte offset of supernode s's panel in the scratch file (panels are
// stored whole, in supernode order).
long panel_offset(const SymbolicFactor& sym, index_t s) {
  long off = 0;
  for (index_t t = 0; t < s; ++t) {
    off += static_cast<long>(sym.front_order(t)) * sym.sn_cols(t) *
           static_cast<long>(sizeof(real_t));
  }
  return off;
}

void flip_file_byte(const std::string& path, long offset) {
  std::FILE* fp = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(std::fseek(fp, offset, SEEK_SET), 0);
  const int c = std::fgetc(fp);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(fp, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(c ^ 0x04, fp), EOF);
  std::fclose(fp);
}

TEST(Ooc, WholeFactorRoundTripAndMatch) {
  const std::string path = scratch_path("whole");
  const SparseMatrix a = grid_laplacian_2d(14, 13, 5);
  const SymbolicFactor sym = analyze(a);
  CholeskyFactor in_core = multifrontal_factor(sym);
  OocCholeskyFactor ooc(sym, path);
  ooc.write_factor(in_core);
  EXPECT_TRUE(ooc.matches(in_core));

  // The whole-factor write is the per-panel layout: panel reads agree.
  const index_t last = sym.n_supernodes - 1;
  const ConstMatrixView ref = in_core.panel(last);
  std::vector<real_t> buf(static_cast<std::size_t>(ref.rows) * ref.cols);
  ooc.read_panel(last, MatrixView{buf.data(), ref.rows, ref.cols, ref.rows});
  EXPECT_EQ(std::memcmp(buf.data(), ref.data, buf.size() * sizeof(real_t)),
            0);

  CholeskyFactor back(sym);
  ooc.read_factor(back);
  ASSERT_EQ(back.values().size(), in_core.values().size());
  EXPECT_EQ(std::memcmp(back.values().data(), in_core.values().data(),
                        in_core.values().size_bytes()),
            0);

  // One changed value anywhere and the file no longer holds this factor.
  in_core.panel(0).at(0, 0) += 1.0;
  EXPECT_FALSE(ooc.matches(in_core));
  ooc.write_factor(in_core);
  EXPECT_TRUE(ooc.matches(in_core));
}

TEST(Ooc, MiddlePanelFlipNamesItsSupernode) {
  const std::string path = scratch_path("middle_flip");
  const SparseMatrix a = grid_laplacian_2d(16, 15, 5);
  const SymbolicFactor sym = analyze(a);
  const OocCholeskyFactor ooc = multifrontal_factor_ooc(sym, path);
  ASSERT_GE(sym.n_supernodes, 3);
  const index_t mid = sym.n_supernodes / 2;
  // The last byte of the panel: its highest exponent bits.
  flip_file_byte(path, panel_offset(sym, mid + 1) - 1);

  CholeskyFactor out(sym);
  try {
    ooc.read_factor(out);
    FAIL() << "corrupted factor read succeeded";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
    EXPECT_EQ(e.status().failed_supernode, mid);
    EXPECT_NE(e.status().message.find("checksum mismatch"),
              std::string::npos);
  }
  // The panel path localizes it the same way, and its neighbours are
  // intact.
  const auto read = [&](index_t s) {
    std::vector<real_t> buf(static_cast<std::size_t>(sym.front_order(s)) *
                            sym.sn_cols(s));
    ooc.read_panel(s, MatrixView{buf.data(), sym.front_order(s),
                                 sym.sn_cols(s), sym.front_order(s)});
  };
  read(mid - 1);
  read(mid + 1);
  try {
    read(mid);
    FAIL() << "corrupted panel read succeeded";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().failed_supernode, mid);
  }
}

TEST(Ooc, TruncatedFileRetriesThenReportsCorruption) {
  const std::string path = scratch_path("truncated");
  const SparseMatrix a = grid_laplacian_2d(16, 15, 5);
  const SymbolicFactor sym = analyze(a);
  const OocCholeskyFactor ooc = multifrontal_factor_ooc(sym, path);
  ASSERT_GE(sym.n_supernodes, 3);
  const index_t mid = sym.n_supernodes / 2;
  // Cut the file inside panel `mid`: every earlier panel is still whole.
  std::filesystem::resize_file(
      path, static_cast<std::uintmax_t>(panel_offset(sym, mid) + 8));

  CholeskyFactor out(sym);
  try {
    ooc.read_factor(out);
    FAIL() << "truncated factor read succeeded";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
    EXPECT_EQ(e.status().failed_supernode, mid);
    EXPECT_NE(e.status().message.find("after one re-read retry"),
              std::string::npos);
  }
  const index_t f = sym.front_order(mid);
  std::vector<real_t> buf(static_cast<std::size_t>(f) * sym.sn_cols(mid));
  try {
    ooc.read_panel(mid, MatrixView{buf.data(), f, sym.sn_cols(mid), f});
    FAIL() << "truncated panel read succeeded";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
    EXPECT_EQ(e.status().failed_supernode, mid);
  }
}

// --- Schur complement ---------------------------------------------------------

TEST(Schur, MatchesDenseComputation) {
  const index_t n = 40, k = 7;
  const SparseMatrix a = random_spd(n, 4, 13);
  const std::vector<real_t> s = schur_complement(a, k);

  // Dense reference: S = A22 - A21 A11^{-1} A12 via full dense inversion.
  const SparseMatrix full = symmetrize_full(a);
  const index_t m = n - k;
  std::vector<std::vector<real_t>> dense(
      static_cast<std::size_t>(n), std::vector<real_t>(n, 0.0));
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = full.col_ptr[j]; p < full.col_ptr[j + 1]; ++p) {
      dense[full.row_ind[p]][j] = full.values[p];
    }
  }
  // Gaussian elimination of the first m columns (no pivoting; SPD).
  for (index_t c = 0; c < m; ++c) {
    const real_t piv = dense[c][c];
    ASSERT_GT(piv, 0.0);
    for (index_t i = c + 1; i < n; ++i) {
      const real_t factor = dense[i][c] / piv;
      if (factor == 0.0) continue;
      for (index_t j = c; j < n; ++j) dense[i][j] -= factor * dense[c][j];
    }
  }
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = j; i < k; ++i) {
      EXPECT_NEAR(s[static_cast<std::size_t>(j) * k + i],
                  dense[m + i][m + j], 1e-9)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(Schur, SchurOfSpdIsSpd) {
  const SparseMatrix a = grid_laplacian_2d(12, 12, 5);
  const index_t k = 10;
  std::vector<real_t> s = schur_complement(a, k);
  // Mirror to full and Cholesky-factor it: must succeed.
  std::vector<real_t> fullbuf(static_cast<std::size_t>(k) * k);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = j; i < k; ++i) {
      fullbuf[static_cast<std::size_t>(j) * k + i] =
          s[static_cast<std::size_t>(j) * k + i];
    }
  }
  MatrixView sv{fullbuf.data(), k, k, k};
  EXPECT_EQ(potrf_lower(sv), kNone);
}

TEST(Schur, EdgeCases) {
  const SparseMatrix a = banded_spd(10, 2);
  // k == 0: empty result.
  EXPECT_TRUE(schur_complement(a, 0).empty());
  // k == n: Schur is A22 == A itself (no elimination).
  const auto s = schur_complement(a, 10);
  for (index_t j = 0; j < 10; ++j) {
    for (index_t i = j; i < 10; ++i) {
      EXPECT_DOUBLE_EQ(s[static_cast<std::size_t>(j) * 10 + i], a.at(i, j));
    }
  }
}

TEST(Schur, SolveViaSchurMatchesDirectSolve) {
  // Block elimination: solve A x = b by factoring A11, forming S, solving
  // S x2 = b2 - A21 A11^{-1} b1, then back-substituting. Must agree with
  // the direct solve — an end-to-end consistency check of the Schur API.
  const index_t n = 60, k = 6, m = n - k;
  const SparseMatrix a = random_spd(n, 3, 29);
  const auto b = random_vector(n, 31);

  Solver direct;
  direct.analyze(a);
  direct.factorize();
  const auto x_ref = direct.solve(b);

  // Split pieces.
  TripletBuilder b11(m, m);
  std::vector<std::vector<std::pair<index_t, real_t>>> a21(
      static_cast<std::size_t>(k));
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      const index_t i = a.row_ind[p];
      if (j < m && i < m) b11.add(i, j, a.values[p]);
      if (j < m && i >= m) a21[i - m].emplace_back(j, a.values[p]);
    }
  }
  Solver s11;
  s11.analyze(b11.build());
  s11.factorize();

  std::vector<real_t> schur = schur_complement(a, k);
  MatrixView sv{schur.data(), k, k, k};

  // rhs2 = b2 - A21 A11^{-1} b1.
  const std::vector<real_t> b1(b.begin(), b.begin() + m);
  const auto w = s11.solve(b1);
  std::vector<real_t> rhs2(static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i) {
    real_t dot = 0.0;
    for (const auto& [col, v] : a21[i]) dot += v * w[col];
    rhs2[i] = b[m + i] - dot;
  }
  ASSERT_EQ(potrf_lower(sv), kNone);
  MatrixView x2v{rhs2.data(), k, 1, k};
  trsm_left_lower(sv, x2v);
  trsm_left_lower_trans(sv, x2v);
  for (index_t i = 0; i < k; ++i) {
    EXPECT_NEAR(rhs2[i], x_ref[m + i], 1e-8);
  }
}

}  // namespace
}  // namespace parfact
