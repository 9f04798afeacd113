// Tests for the silent-data-corruption defense (DESIGN.md §5f): the shared
// checksum primitives, the ABFT checksum-carrying factorization with its
// detect → localize → recompute repair, at-rest factor verification, the
// mpsim single-bit wire/checkpoint fault injection, and the Solver facade's
// post-solve verify-and-repair. The acceptance bar everywhere mirrors the
// repo's standing contract: an injected flip is either healed (result
// bitwise identical to the clean run) or surfaces as a diagnosed Status —
// never a silent wrong answer.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/solver.h"
#include "dist/dist_factor.h"
#include "dist/mapping.h"
#include "mf/abft.h"
#include "mf/governed.h"
#include "mf/multifrontal.h"
#include "mpsim/machine.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/checksum.h"
#include "support/error.h"
#include "support/prng.h"
#include "support/status.h"
#include "symbolic/working_set.h"

namespace parfact {
namespace {

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

SparseMatrix test_matrix() { return grid_laplacian_2d(12, 11, 5); }

void expect_factors_bitwise_equal(const SymbolicFactor& sym,
                                  const CholeskyFactor& a,
                                  const CholeskyFactor& b) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView pa = a.panel(s);
    const ConstMatrixView pb = b.panel(s);
    for (index_t j = 0; j < pa.cols; ++j) {
      for (index_t i = j; i < pa.rows; ++i) {
        ASSERT_EQ(pa.at(i, j), pb.at(i, j))
            << "supernode " << s << " (" << i << "," << j << ")";
      }
    }
  }
}

// A supernode with a nonempty below-diagonal block: kTrsm/kUpdate faults
// have somewhere to strike there.
index_t supernode_with_below(const SymbolicFactor& sym) {
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    if (sym.sn_below(s) > 0) return s;
  }
  return kNone;
}

FrontMap spread_map(const SymbolicFactor& sym, int p) {
  return build_front_map(sym, p, MappingStrategy::kSubtree2d, 8, 1e3);
}

// --- support/checksum primitives -------------------------------------------

TEST(Checksum, Fnv1aKnownValuesAndChaining) {
  // Empty input returns the seed unchanged.
  EXPECT_EQ(fnv1a(nullptr, 0), kFnv1aOffsetBasis);
  // Reference digest of "a" (FNV-1a 64-bit test vector).
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  const char data[] = "parfact";
  const std::uint64_t whole = fnv1a(data, 7);
  // Chaining ranges through the seed matches hashing the whole buffer.
  EXPECT_EQ(fnv1a(data + 3, 4, fnv1a(data, 3)), whole);
  // Any flipped bit changes the digest.
  char copy[7];
  std::memcpy(copy, data, 7);
  copy[5] = static_cast<char>(copy[5] ^ 0x10);
  EXPECT_NE(fnv1a(copy, 7), whole);
}

// bulk_digest guards stored and transmitted payloads. Its single-change
// guarantee is by construction (every step a bijection); these tests pin
// it exhaustively on small buffers, at every length class the four-lane
// loop and its word/byte tails distinguish, from aligned and unaligned
// starts.
constexpr std::size_t kDigestLengths[] = {0,  1,  7,  8,  9,   31,
                                          32, 33, 64, 65, 4101};

std::vector<unsigned char> digest_pattern(std::size_t bytes) {
  std::vector<unsigned char> v(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    v[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  return v;
}

TEST(Checksum, BulkDigestKnownValues) {
  // Pinned answers: any change to the function shows here.
  EXPECT_EQ(bulk_digest(nullptr, 0), 0x1f3928d332ecedbcull);
  EXPECT_EQ(bulk_digest("a", 1), 0x759fe221da82c69aull);
  EXPECT_EQ(bulk_digest("parfact bulk digest", 19), 0x4b190faebd83e96aull);
  const std::vector<unsigned char> p = digest_pattern(4101);
  EXPECT_EQ(bulk_digest(p.data(), 8), 0x4fbdd7c728c9a744ull);
  EXPECT_EQ(bulk_digest(p.data(), 32), 0x88ca6312c5ab5084ull);
  EXPECT_EQ(bulk_digest(p.data(), 33), 0x5da4d6af8de9279eull);
  EXPECT_EQ(bulk_digest(p.data(), 64), 0xa7b746dc38107357ull);
  EXPECT_EQ(bulk_digest(p.data(), 4101), 0x7d9af32d434f40ceull);
}

TEST(Checksum, BulkDigestEveryBitFlipChangesIt) {
  for (const std::size_t offset : {std::size_t{0}, std::size_t{3}}) {
    for (const std::size_t len : kDigestLengths) {
      SCOPED_TRACE(::testing::Message()
                   << "length " << len << ", start offset " << offset);
      // The same bytes at an unaligned start digest the same.
      std::vector<unsigned char> buf(len + offset + 1, 0xEE);
      const std::vector<unsigned char> p = digest_pattern(len);
      std::copy(p.begin(), p.end(), buf.begin() + offset);
      unsigned char* data = buf.data() + offset;
      const std::uint64_t clean = bulk_digest(data, len);
      ASSERT_EQ(clean, bulk_digest(p.data(), len));
      for (std::size_t byte = 0; byte < len; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
          data[byte] ^= static_cast<unsigned char>(1u << bit);
          const std::uint64_t flipped = bulk_digest(data, len);
          data[byte] ^= static_cast<unsigned char>(1u << bit);
          ASSERT_NE(flipped, clean) << "byte " << byte << " bit " << bit;
        }
      }
      ASSERT_EQ(bulk_digest(data, len), clean);
    }
  }
}

TEST(Checksum, BulkDigestFoldsInTheLength) {
  // Zero bytes of every length up to three stripes: the zero-padded tail
  // word alone cannot tell these apart, the folded-in length must.
  const std::vector<unsigned char> zeros(96, 0);
  std::vector<std::uint64_t> seen;
  for (std::size_t len = 0; len <= zeros.size(); ++len) {
    const std::uint64_t d = bulk_digest(zeros.data(), len);
    EXPECT_EQ(std::find(seen.begin(), seen.end(), d), seen.end())
        << "length " << len;
    seen.push_back(d);
  }
}

TEST(Checksum, BulkDigestCatchesDroppedDuplicatedAndSwappedWords) {
  // 21 distinct words: five full stripes and a one-word tail, so every
  // lane and the tail path take part.
  std::vector<std::uint64_t> words(21);
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = 0x9E3779B97F4A7C15ull * (i + 1);
  }
  const auto digest = [](const std::vector<std::uint64_t>& w) {
    return bulk_digest(w.data(), w.size() * sizeof(std::uint64_t));
  };
  const std::uint64_t clean = digest(words);
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::vector<std::uint64_t> dropped = words;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_NE(digest(dropped), clean) << "dropped word " << i;
    std::vector<std::uint64_t> duplicated = words;
    duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(i),
                      words[i]);
    EXPECT_NE(digest(duplicated), clean) << "duplicated word " << i;
    // Swaps with the next word (another lane) and with the word four
    // further on (the same lane, one round later).
    for (const std::size_t step : {std::size_t{1}, std::size_t{4}}) {
      if (i + step >= words.size()) continue;
      std::vector<std::uint64_t> swapped = words;
      std::swap(swapped[i], swapped[i + step]);
      EXPECT_NE(digest(swapped), clean)
          << "swapped words " << i << " and " << i + step;
    }
  }
}

TEST(Checksum, AbftMismatchPredicate) {
  EXPECT_FALSE(abft_mismatch(1.0, 1.0, 1.0, 1e-8));
  EXPECT_FALSE(abft_mismatch(1.0 + 1e-12, 1.0, 1.0, 1e-8));
  EXPECT_TRUE(abft_mismatch(1.0 + 1e-3, 1.0, 1.0, 1e-8));
  // NaN / Inf on either side must read as mismatch.
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  EXPECT_TRUE(abft_mismatch(nan, 1.0, 1.0, 1e-8));
  EXPECT_TRUE(abft_mismatch(1.0, nan, 1.0, 1e-8));
  EXPECT_TRUE(abft_mismatch(inf, 1.0, 1.0, 1e-8));
}

TEST(Checksum, FlipBitRoundTrip) {
  const real_t v = 3.25;
  for (const int bit : {0, 31, 52, 62, 63}) {
    const real_t flipped = flip_bit(v, bit);
    EXPECT_NE(flipped, v) << "bit " << bit;
    EXPECT_EQ(flip_bit(flipped, bit), v) << "bit " << bit;
  }
  // Bit 62 of 0.0 sets the top exponent bit: exactly 2.0.
  EXPECT_EQ(flip_bit(0.0, 62), 2.0);
}

TEST(Checksum, FlipBitInBytesMatchesScalarFlip) {
  std::vector<real_t> buf = {1.0, -2.5, 3.75, 0.5};
  const std::vector<real_t> orig = buf;
  // word wraps modulo the buffer size: word 6 strikes element 2.
  flip_bit_in_bytes(buf.data(), buf.size() * sizeof(real_t), 6, 62);
  EXPECT_EQ(buf[2], flip_bit(orig[2], 62));
  for (const int i : {0, 1, 3}) EXPECT_EQ(buf[i], orig[i]);
  flip_bit_in_bytes(nullptr, 0, 0, 0);  // empty buffer: no-op
}

// --- ABFT factorization: clean runs ----------------------------------------

TEST(Abft, CleanRunBitwiseIdenticalCholesky) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor reference = multifrontal_factor(sym);
  FactorStats stats;
  FactorChecksums sums;
  const CholeskyFactor guarded = multifrontal_factor_abft(
      sym, &stats, FactorKind::kCholesky, {}, {}, &sums);
  expect_factors_bitwise_equal(sym, reference, guarded);
  EXPECT_GT(stats.abft_checks, 0);
  EXPECT_EQ(stats.abft_detections, 0);
  EXPECT_EQ(stats.fronts_recomputed, 0);
  ASSERT_FALSE(sums.empty());
  EXPECT_EQ(verify_factor(sym, guarded, sums), kNone);
}

TEST(Abft, CleanRunBitwiseIdenticalLdlt) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  FactorStats ref_stats;
  const CholeskyFactor reference =
      multifrontal_factor(sym, &ref_stats, FactorKind::kLdlt);
  FactorStats stats;
  const CholeskyFactor guarded =
      multifrontal_factor_abft(sym, &stats, FactorKind::kLdlt);
  expect_factors_bitwise_equal(sym, reference, guarded);
  ASSERT_EQ(reference.diag().size(), guarded.diag().size());
  for (std::size_t k = 0; k < reference.diag().size(); ++k) {
    EXPECT_EQ(reference.diag()[k], guarded.diag()[k]);
  }
  EXPECT_EQ(stats.abft_detections, 0);
}

TEST(Abft, BoostedPivotsStillCleanAndBitwiseIdentical) {
  // Static pivoting deliberately breaks the POTRF identity on boosted
  // fronts (the check is skipped there); the run must stay detection-free
  // and bitwise identical, with the same perturbation count.
  const SparseMatrix a =
      append_decoupled_rows(grid_laplacian_2d(9, 8, 5), 3, 1e-30);
  const SymbolicFactor sym = analyze(a);
  PivotPolicy pivot;
  pivot.boost = true;
  FactorStats ref_stats;
  const CholeskyFactor reference =
      multifrontal_factor(sym, &ref_stats, FactorKind::kCholesky, pivot);
  EXPECT_GT(ref_stats.pivot_perturbations, 0);
  FactorStats stats;
  const CholeskyFactor guarded = multifrontal_factor_abft(
      sym, &stats, FactorKind::kCholesky, pivot);
  expect_factors_bitwise_equal(sym, reference, guarded);
  EXPECT_EQ(stats.pivot_perturbations, ref_stats.pivot_perturbations);
  EXPECT_EQ(stats.abft_detections, 0);
}

// --- ABFT factorization: injected faults -----------------------------------

class AbftSiteP : public ::testing::TestWithParam<SdcSite> {};

TEST_P(AbftSiteP, SingleFlipDetectedAndHealedBitwiseIdentical) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor reference = multifrontal_factor(sym);
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SdcInjection inject;
    inject.site = GetParam();
    inject.seed = seed;
    inject.bit = 62;
    inject.supernode = supernode_with_below(sym);
    ASSERT_NE(inject.supernode, kNone);
    AbftOptions options;
    options.inject = &inject;
    FactorStats stats;
    const CholeskyFactor healed = multifrontal_factor_abft(
        sym, &stats, FactorKind::kCholesky, {}, options);
    EXPECT_GE(stats.abft_detections, 1) << "seed " << seed;
    EXPECT_GE(stats.fronts_recomputed, 1) << "seed " << seed;
    expect_factors_bitwise_equal(sym, reference, healed);
  }
}

INSTANTIATE_TEST_SUITE_P(Sites, AbftSiteP,
                         ::testing::Values(SdcSite::kAssembly, SdcSite::kPotrf,
                                           SdcSite::kTrsm, SdcSite::kUpdate));

// A repair re-runs a child subtree while its parent's block is live, which
// the clean postorder never holds at once: the update-block arena overflows
// into heap blocks, and the healed factor is still bitwise identical.
TEST(Abft, UpdateFlipRepairBeyondArenaHealsBitwise) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor reference = multifrontal_factor(sym);
  // The first supernode with rows below and children of its own: its
  // block's repair re-runs a subtree of more than one front.
  index_t target = kNone;
  for (index_t s = 0; s < sym.n_supernodes && target == kNone; ++s) {
    if (sym.sn_below(s) == 0) continue;
    for (index_t t = 0; t < s; ++t) {
      if (sym.sn_parent[t] == s) target = s;
    }
  }
  ASSERT_NE(target, kNone);
  SdcInjection inject;
  inject.site = SdcSite::kUpdate;
  inject.supernode = target;
  AbftOptions options;
  options.inject = &inject;
  FactorStats stats;
  const CholeskyFactor healed = multifrontal_factor_abft(
      sym, &stats, FactorKind::kCholesky, {}, options);
  EXPECT_EQ(stats.abft_detections, 1);
  EXPECT_GE(stats.fronts_recomputed, 2);
  EXPECT_GT(stats.peak_update_bytes,
            estimate_working_set(sym, false).peak_update_bytes);
  expect_factors_bitwise_equal(sym, reference, healed);
}

TEST(Abft, LdltFlipDetectedAndHealed) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor reference =
      multifrontal_factor(sym, nullptr, FactorKind::kLdlt);
  SdcInjection inject;
  inject.site = SdcSite::kTrsm;
  inject.supernode = supernode_with_below(sym);
  AbftOptions options;
  options.inject = &inject;
  FactorStats stats;
  const CholeskyFactor healed = multifrontal_factor_abft(
      sym, &stats, FactorKind::kLdlt, {}, options);
  EXPECT_GE(stats.abft_detections, 1);
  expect_factors_bitwise_equal(sym, reference, healed);
}

TEST(Abft, StickyFaultSurfacesAsDataCorruption) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  SdcInjection inject;
  inject.site = SdcSite::kPotrf;
  inject.supernode = supernode_with_below(sym);
  inject.sticky = true;  // re-strikes on every recompute: a hard fault
  AbftOptions options;
  options.inject = &inject;
  try {
    (void)multifrontal_factor_abft(sym, nullptr, FactorKind::kCholesky, {},
                                   options);
    FAIL() << "expected kDataCorruption";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kDataCorruption);
    EXPECT_EQ(e.status().failed_supernode, inject.supernode);
  }
}

// --- At-rest verification and localized repair ------------------------------

TEST(Abft, VerifyFactorLocalizesAndRecomputeSubtreeHeals) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  const CholeskyFactor reference = multifrontal_factor(sym);
  FactorChecksums sums;
  CholeskyFactor victim = multifrontal_factor_abft(
      sym, nullptr, FactorKind::kCholesky, {}, {}, &sums);
  expect_factors_bitwise_equal(sym, reference, victim);
  EXPECT_EQ(verify_factor(sym, victim, sums), kNone);

  SdcInjection inject;
  inject.site = SdcSite::kStoredFactor;
  inject.supernode = sym.n_supernodes / 2;
  const index_t struck = inject_factor_bitflip(sym, victim, inject);
  EXPECT_EQ(struck, inject.supernode);
  const index_t bad = verify_factor(sym, victim, sums);
  ASSERT_EQ(bad, struck);

  const count_t healed =
      recompute_subtree(sym, bad, FactorKind::kCholesky, {}, victim, &sums);
  EXPECT_GE(healed, 1);
  EXPECT_EQ(healed, bad - sym.first_descendant(bad) + 1);
  EXPECT_EQ(verify_factor(sym, victim, sums), kNone);
  expect_factors_bitwise_equal(sym, reference, victim);
}

TEST(Abft, FirstDescendantSpansContiguousSubtrees) {
  const SparseMatrix a = test_matrix();
  const SymbolicFactor sym = analyze(a);
  // Root subtree is the whole postorder; leaves are their own subtree.
  EXPECT_EQ(sym.first_descendant(sym.n_supernodes - 1), 0);
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const index_t fd = sym.first_descendant(s);
    EXPECT_GE(fd, 0);
    EXPECT_LE(fd, s);
  }
}

// --- Solver facade: ABFT option, injection, verify-and-repair ---------------

TEST(SolverSdc, AbftFactorizeMatchesPlainAndSolves) {
  const SparseMatrix a = test_matrix();
  const std::vector<real_t> b = random_vector(a.rows, 3);

  Solver plain;
  plain.analyze(a);
  ASSERT_TRUE(plain.factorize().ok());

  SolverOptions options;
  options.abft = true;
  Solver guarded(options);
  guarded.analyze(a);
  ASSERT_TRUE(guarded.factorize().ok());
  EXPECT_GT(guarded.report().abft_checks, 0);
  EXPECT_EQ(guarded.report().abft_detections, 0);
  EXPECT_FALSE(guarded.report().corruption_detected);
  expect_factors_bitwise_equal(guarded.symbolic(), plain.factor(),
                               guarded.factor());

  const std::vector<real_t> x = guarded.solve(b);
  EXPECT_LT(guarded.residual(x, b), 1e-10);
}

// ABFT is a property of the run on either budget rung: its checks are
// hooks of the serial driver, whatever the panel destination. The in-core
// rung reserves the ABFT state on top of the hookless working set.
TEST(SolverSdc, AbftWithInCoreBudgetMatchesCleanSerial) {
  SolverOptions options;
  options.abft = true;
  Solver solver(options);
  solver.analyze(test_matrix());
  const std::size_t need =
      estimate_working_set(solver.symbolic(), false).peak_incore_bytes +
      abft_state_bytes(solver.symbolic(), FactorKind::kCholesky, true);
  solver.set_memory_budget_bytes(need - 1);
  ASSERT_TRUE(solver.factorize().ok());
  EXPECT_EQ(solver.report().admission, Admission::kSpill);
  solver.set_memory_budget_bytes(need);
  ASSERT_TRUE(solver.factorize().ok());
  EXPECT_EQ(solver.report().admission, Admission::kInCore);
  EXPECT_GT(solver.report().abft_checks, 0);
  EXPECT_EQ(solver.report().abft_detections, 0);
  const CholeskyFactor clean = multifrontal_factor(solver.symbolic());
  expect_factors_bitwise_equal(solver.symbolic(), clean, solver.factor());
}

TEST(SolverSdc, AbftWithSpillBudgetRepairsUpdateFlipOnDisk) {
  const SparseMatrix a = test_matrix();
  Solver probe;  // the analysis is deterministic: pick the target on it
  probe.analyze(a);
  const SymbolicFactor& sym = probe.symbolic();
  // A front with rows below (an update block to flip) and children, so the
  // repair re-runs a multi-front subtree whose panels are already on disk.
  index_t target = kNone;
  for (index_t s = 0; s < sym.n_supernodes && target == kNone; ++s) {
    if (sym.sn_below(s) > 0 && sym.first_descendant(s) < s) target = s;
  }
  ASSERT_NE(target, kNone);
  const index_t subtree = target - sym.first_descendant(target) + 1;

  SolverOptions options;
  options.abft = true;
  options.spill_path = "/tmp/parfact_sdc_abft_spill.bin";
  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = SdcSite::kUpdate;
  options.inject_sdc->supernode = target;
  Solver struck(options);
  struck.analyze(a);
  struck.set_memory_budget_bytes(
      estimate_working_set(struck.symbolic(), false).peak_incore_bytes - 1);
  ASSERT_TRUE(struck.factorize().ok());
  EXPECT_EQ(struck.report().admission, Admission::kSpill);
  ASSERT_TRUE(struck.factor_spilled());
  EXPECT_GE(struck.report().abft_detections, 1);
  // The corrupt child's subtree plus the parent's retry.
  EXPECT_GE(struck.report().fronts_recomputed, subtree + 1);

  const CholeskyFactor clean = multifrontal_factor(struck.symbolic());
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    const ConstMatrixView want = clean.panel(s);
    std::vector<real_t> got(static_cast<std::size_t>(want.rows) * want.cols);
    struck.ooc_factor().read_panel(
        s, MatrixView{got.data(), want.rows, want.cols, want.rows});
    for (index_t j = 0; j < want.cols; ++j) {
      ASSERT_EQ(std::memcmp(&want.at(0, j),
                            got.data() + static_cast<std::size_t>(j) *
                                             want.rows,
                            static_cast<std::size_t>(want.rows) *
                                sizeof(real_t)),
                0)
          << "supernode " << s << " column " << j;
    }
  }
}

// refactorize() under ABFT runs in place: same panel storage, the at-rest
// checksums re-armed by the run, so a stored-factor flip after it is
// localized by the post-solve verifier.
TEST(SolverSdc, AbftRefactorizeInPlaceArmsChecksums) {
  const SparseMatrix a = test_matrix();
  SparseMatrix a2 = a;
  for (real_t& v : a2.values) v *= 1.5;
  const std::vector<real_t> b = random_vector(a.rows, 8);

  Solver reference;
  reference.analyze(a2);
  ASSERT_TRUE(reference.factorize().ok());
  const std::vector<real_t> want = reference.solve(b);

  SolverOptions options;
  options.abft = true;
  options.verify = SolverOptions::Verify::kSampled;
  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = SdcSite::kStoredFactor;
  options.inject_sdc->supernode = 1;
  Solver solver(options);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const real_t* storage = solver.factor().panel(0).data;

  ASSERT_TRUE(solver.refactorize(a2.values).ok());
  EXPECT_EQ(solver.factor().panel(0).data, storage);
  EXPECT_GT(solver.report().abft_checks, 0);
  EXPECT_EQ(solver.report().abft_detections, 0);

  const std::vector<real_t> x = solver.solve(b);
  EXPECT_TRUE(solver.report().corruption_detected);
  EXPECT_GE(solver.report().fronts_recomputed, 1);
  EXPECT_LT(solver.report().fronts_recomputed, solver.report().n_supernodes)
      << "repair should be localized by the re-armed checksums";
  ASSERT_EQ(x.size(), want.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], want[i]);
}

TEST(SolverSdc, FactorizationSiteInjectionRequiresAbft) {
  SolverOptions options;
  options.inject_sdc = SdcInjection{};  // kPotrf, abft not enabled
  Solver solver(options);
  solver.analyze(test_matrix());
  const Status status = solver.factorize();
  EXPECT_EQ(status.code, StatusCode::kInvalidInput);
}

TEST(SolverSdc, FactorTimeFlipHealedThroughFacade) {
  const SparseMatrix a = test_matrix();
  Solver plain;
  plain.analyze(a);
  ASSERT_TRUE(plain.factorize().ok());

  SolverOptions options;
  options.abft = true;
  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = SdcSite::kPotrf;
  options.inject_sdc->supernode = 0;
  Solver struck(options);
  struck.analyze(a);
  ASSERT_TRUE(struck.factorize().ok());
  EXPECT_TRUE(struck.report().corruption_detected);
  EXPECT_GE(struck.report().abft_detections, 1);
  EXPECT_GE(struck.report().fronts_recomputed, 1);
  expect_factors_bitwise_equal(struck.symbolic(), plain.factor(),
                               struck.factor());
}

TEST(SolverSdc, StoredFactorFlipHealedByLocalizedRecompute) {
  // abft arms the at-rest checksums, so the post-solve verifier localizes
  // the struck supernode and recomputes only its subtree.
  const SparseMatrix a = test_matrix();
  const std::vector<real_t> b = random_vector(a.rows, 5);

  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());
  const std::vector<real_t> want = reference.solve(b);

  SolverOptions options;
  options.abft = true;
  options.verify = SolverOptions::Verify::kSampled;
  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = SdcSite::kStoredFactor;
  options.inject_sdc->supernode = 1;
  Solver solver(options);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_TRUE(solver.report().corruption_detected);
  EXPECT_GE(solver.report().fronts_recomputed, 1);
  EXPECT_LT(solver.report().fronts_recomputed, solver.report().n_supernodes)
      << "repair should be localized, not a full refactorize";
  EXPECT_LE(solver.report().verify_residual, 1e-8);
  ASSERT_EQ(x.size(), want.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], want[i]);
}

TEST(SolverSdc, StoredFactorFlipHealedByFullRecomputeWithoutChecksums) {
  // Without abft there are no at-rest checksums: the verifier falls back
  // to recomputing the whole factor, which still restores the bitwise
  // reference answer. It recomputes in place, inside the allocation the
  // factorization was admitted with, so the panels do not move.
  const SparseMatrix a = test_matrix();
  const std::vector<real_t> b = random_vector(a.rows, 6);

  Solver reference;
  reference.analyze(a);
  ASSERT_TRUE(reference.factorize().ok());
  const std::vector<real_t> want = reference.solve(b);

  SolverOptions options;
  options.verify = SolverOptions::Verify::kSampled;
  options.inject_sdc = SdcInjection{};
  options.inject_sdc->site = SdcSite::kStoredFactor;
  options.inject_sdc->supernode = 1;
  Solver solver(options);
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const real_t* const panels = solver.factor().panel(0).data;
  const std::vector<real_t> x = solver.solve(b);
  EXPECT_TRUE(solver.report().corruption_detected);
  EXPECT_EQ(solver.report().fronts_recomputed, solver.report().n_supernodes);
  EXPECT_EQ(solver.factor().panel(0).data, panels);
  ASSERT_EQ(x.size(), want.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], want[i]);
}

TEST(SolverSdc, StoredFactorFlipHealedInRefinedSolve) {
  // solve_refined() verifies its answer like solve_multi(): the first
  // column under kSampled. The healed answer re-runs the refined solve's
  // own sweeps and corrections, so it is bitwise the clean one — for a
  // block of right-hand sides and for one.
  const SparseMatrix a = test_matrix();
  for (const index_t nrhs : {5, 1}) {
    SCOPED_TRACE(nrhs);
    const std::vector<real_t> b = random_vector(a.rows * nrhs, 7);

    Solver reference;
    reference.analyze(a);
    ASSERT_TRUE(reference.factorize().ok());
    const std::vector<real_t> want = reference.solve_refined(b, nrhs);

    SolverOptions options;
    options.verify = SolverOptions::Verify::kSampled;
    options.inject_sdc = SdcInjection{};
    options.inject_sdc->site = SdcSite::kStoredFactor;
    options.inject_sdc->supernode = 1;
    Solver solver(options);
    solver.analyze(a);
    ASSERT_TRUE(solver.factorize().ok());
    const std::vector<real_t> x = solver.solve_refined(b, nrhs);
    EXPECT_TRUE(solver.report().corruption_detected);
    EXPECT_LE(solver.report().verify_residual, 1e-8);
    ASSERT_EQ(x.size(), want.size());
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], want[i]);
  }
}

TEST(SolverSdc, UnverifiedFlipScanNeverReturnsNonFiniteOk) {
  // With verify off nothing checks the stored factor, and a flipped top
  // exponent bit can make the direct answer NaN or inf. solve_robust() must
  // then recover a finite answer or report failure: the normwise residual
  // reads +inf for a non-finite answer, and the CG fallback starts from
  // zero instead of from that answer.
  const SparseMatrix a = test_matrix();
  const std::vector<real_t> b = random_vector(a.rows, 13);
  Solver probe;
  probe.analyze(a);
  const index_t supernodes = probe.report().n_supernodes;
  const auto finite = [](const std::vector<real_t>& x) {
    return std::all_of(x.begin(), x.end(),
                       [](real_t v) { return std::isfinite(v); });
  };
  int non_finite_direct = 0;
  for (index_t s = 0; s < supernodes; ++s) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SolverOptions options;
      options.inject_sdc = SdcInjection{};
      options.inject_sdc->site = SdcSite::kStoredFactor;
      options.inject_sdc->supernode = s;
      options.inject_sdc->seed = seed;
      Solver solver(options);
      solver.analyze(a);
      ASSERT_TRUE(solver.factorize().ok());
      if (!finite(solver.solve(b))) ++non_finite_direct;
      const RobustSolveResult r = solver.solve_robust(b);
      EXPECT_TRUE(finite(r.x) || r.status.failed())
          << "supernode " << s << " seed " << seed << ": path "
          << solve_path_name(r.path) << " returned a non-finite answer";
      if (!finite(r.x)) {
        EXPECT_EQ(r.residual, std::numeric_limits<real_t>::infinity());
      }
    }
  }
  EXPECT_GT(non_finite_direct, 0) << "the scan never produced the case";
}

TEST(SolverSdc, CleanVerifiedSolveReportsResidualOnly) {
  SolverOptions options;
  options.verify = SolverOptions::Verify::kFull;
  Solver solver(options);
  const SparseMatrix a = test_matrix();
  solver.analyze(a);
  ASSERT_TRUE(solver.factorize().ok());
  const std::vector<real_t> b = random_vector(a.rows, 9);
  (void)solver.solve_multi(b, 1);
  EXPECT_FALSE(solver.report().corruption_detected);
  EXPECT_GT(solver.report().verify_residual, 0.0);
  EXPECT_LE(solver.report().verify_residual, 1e-8);
}

// --- mpsim wire-level bit flips --------------------------------------------

TEST(MpsimSdc, WireFlipWithChecksumsHealsTransparently) {
  const std::vector<double> payload = random_vector(64, 11);
  mpsim::FaultPlan plan;
  plan.bit_flips.push_back({/*rank=*/0, /*at=*/0.0, /*site=*/0,
                            /*word=*/5, /*bit=*/62});
  std::vector<double> received;
  const mpsim::RunStats stats =
      mpsim::run_spmd(2, {}, plan, [&](mpsim::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_vec(1, 7, payload);
        } else {
          mpsim::Request r = comm.irecv(0, 7);
          received = comm.wait_vec<double>(r);
        }
      });
  ASSERT_EQ(received.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(received[i], payload[i]) << "element " << i;
  }
  EXPECT_EQ(stats.total_bit_flips, 1);
  EXPECT_GE(stats.total_corrupt_discarded, 1);
  EXPECT_GE(stats.total_retransmits, 1);
}

TEST(MpsimSdc, WireFlipWithoutChecksumsDeliversSilently) {
  // The undefended wire: the corrupted copy is delivered and the flip is
  // exactly the selected word/bit — what the downstream ABFT/verify layers
  // must catch.
  const std::vector<double> payload = random_vector(64, 12);
  mpsim::FaultPlan plan;
  plan.wire_checksums = false;
  plan.bit_flips.push_back({/*rank=*/0, /*at=*/0.0, /*site=*/0,
                            /*word=*/5, /*bit=*/62});
  std::vector<double> received;
  const mpsim::RunStats stats =
      mpsim::run_spmd(2, {}, plan, [&](mpsim::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_vec(1, 7, payload);
        } else {
          mpsim::Request r = comm.irecv(0, 7);
          received = comm.wait_vec<double>(r);
        }
      });
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received[5], flip_bit(payload[5], 62));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (i != 5) {
      EXPECT_EQ(received[i], payload[i]) << "element " << i;
    }
  }
  EXPECT_EQ(stats.total_bit_flips, 1);
  EXPECT_EQ(stats.total_corrupt_discarded, 0);
}

TEST(MpsimSdc, BitFlipPlanValidation) {
  const auto run = [](const mpsim::FaultPlan& plan) {
    (void)mpsim::run_spmd(2, {}, plan, [](mpsim::Comm&) {});
  };
  const auto expect_invalid = [&](mpsim::FaultPlan::BitFlip flip) {
    mpsim::FaultPlan plan;
    plan.bit_flips.push_back(flip);
    try {
      run(plan);
      FAIL() << "expected kInvalidInput";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
    }
  };
  expect_invalid({/*rank=*/2, 0.0, 0, 0, 62});    // rank out of range
  expect_invalid({/*rank=*/-1, 0.0, 0, 0, 62});   // negative rank
  expect_invalid({0, 0.0, /*site=*/2, 0, 62});    // unknown site
  expect_invalid({0, 0.0, 0, 0, /*bit=*/64});     // bit out of range
  expect_invalid({0, 0.0, 0, 0, /*bit=*/-1});
  expect_invalid({0, /*at=*/-1.0, 0, 0, 62});     // negative fire time
  // A well-formed entry passes validation.
  mpsim::FaultPlan ok;
  ok.bit_flips.push_back({0, 0.0, 1, 3, 62});
  run(ok);
}

TEST(MpsimSdc, CheckpointSaveWithOutstandingIrecvDiagnosed) {
  // Composing buddy checkpoints with nonblocking lookahead receives is a
  // protocol error; it must come back as kInvalidInput, not an abort.
  try {
    (void)mpsim::run_spmd(2, {}, [](mpsim::Comm& comm) {
      if (comm.rank() == 0) {
        mpsim::Request r = comm.irecv(1, 3);
        comm.checkpoint_save(1, std::vector<std::byte>(8));
        (void)comm.wait(r);
      } else {
        const std::vector<double> one(1, 1.0);
        comm.send_vec(0, 3, one);
      }
    });
    FAIL() << "expected kInvalidInput";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
  }
}

// --- Distributed factorization under bit flips ------------------------------

TEST(DistSdc, WireFlipHealedFactorBitwiseIdentical) {
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());

  for (const int victim : {0, 1, 2}) {
    mpsim::FaultPlan plan;
    plan.bit_flips.push_back({victim, 0.0, /*site=*/0, /*word=*/3,
                              /*bit=*/62});
    const DistFactorResult flipped = distributed_factor(
        sym, map, {}, FactorKind::kCholesky, {}, plan);
    ASSERT_TRUE(flipped.status.ok()) << flipped.status.to_string();
    expect_factors_bitwise_equal(sym, clean.factor, flipped.factor);
    if (flipped.run.total_bit_flips > 0) {
      EXPECT_GE(flipped.run.total_corrupt_discarded, 1) << "rank " << victim;
    }
  }
}

TEST(DistSdc, CorruptCheckpointBlobDiagnosedOnRestore) {
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  ResiliencePolicy resilience;
  resilience.buddy_checkpoint = true;
  resilience.checkpoint_interval = 2;

  // Probe the clean resilient run for the victim's busy time, then corrupt
  // every checkpoint the victim stores (one fired entry each) and crash it
  // mid-run: the spare restores from a corrupt blob and the codec must
  // diagnose kDataCorruption — never resume from garbage state.
  const int victim = 1;
  const DistFactorResult probe = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, resilience);
  ASSERT_TRUE(probe.status.ok());
  ASSERT_GT(probe.run.checkpoints_stored, 0);
  mpsim::FaultPlan plan;
  plan.crashes.push_back(
      {victim, 0.6 * probe.run.rank_time[static_cast<std::size_t>(victim)]});
  plan.spare_ranks = 1;
  for (int i = 0; i < 64; ++i) {
    plan.bit_flips.push_back({victim, 0.0, /*site=*/1,
                              /*word=*/static_cast<std::uint64_t>(i),
                              /*bit=*/7});
  }
  const DistFactorResult result = distributed_factor_checked(
      sym, map, {}, FactorKind::kCholesky, {}, plan, resilience);
  ASSERT_TRUE(result.status.failed());
  EXPECT_EQ(result.status.code, StatusCode::kDataCorruption)
      << result.status.to_string();
  // The aborted run surfaces no RunStats (the exception preempts them), so
  // the diagnosed Status is the whole observable outcome — as intended.
}

TEST(DistSdc, ResilienceComposesWithLookaheadSchedule) {
  // Satellite of the checkpoint/irecv fix: the lookahead schedule drains
  // its preposted receives before every front boundary, so buddy
  // checkpointing composes with it cleanly (no kInvalidInput) and a crash
  // recovery under lookahead is still bitwise identical.
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  DistConfig config;
  config.schedule = DistConfig::Schedule::kLookahead;
  ResiliencePolicy resilience;
  resilience.buddy_checkpoint = true;
  resilience.checkpoint_interval = 2;

  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());
  const DistFactorResult probe = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, resilience, config);
  ASSERT_TRUE(probe.status.ok());
  ASSERT_GT(probe.run.checkpoints_stored, 0);

  mpsim::FaultPlan plan;
  plan.crashes.push_back({1, 0.5 * probe.run.rank_time[1]});
  plan.spare_ranks = 1;
  const DistFactorResult crashed = distributed_factor_checked(
      sym, map, {}, FactorKind::kCholesky, {}, plan, resilience, config);
  ASSERT_TRUE(crashed.status.ok()) << crashed.status.to_string();
  EXPECT_EQ(crashed.run.ranks_recovered, 1);
  expect_factors_bitwise_equal(sym, clean.factor, crashed.factor);
}

// --- Chaos soak -------------------------------------------------------------

TEST(ChaosSoak, MixedFaultsBitwiseIdenticalOrCleanStatus) {
  // Drop/duplicate/delay/ack-loss/crash/bit-flip combined over a seed
  // sweep, wire checksums on. Every run must end in either a factor
  // bitwise identical to the clean run or a diagnosed Status — completing
  // the sweep at all also proves no hang.
  const SparseMatrix a = grid_laplacian_2d(9, 8, 5);
  const SymbolicFactor sym = analyze(a);
  const FrontMap map = spread_map(sym, 4);
  ResiliencePolicy resilience;
  resilience.buddy_checkpoint = true;
  resilience.checkpoint_interval = 4;
  const DistFactorResult clean = distributed_factor(sym, map);
  ASSERT_TRUE(clean.status.ok());
  const DistFactorResult probe = distributed_factor(
      sym, map, {}, FactorKind::kCholesky, {}, {}, resilience);
  ASSERT_TRUE(probe.status.ok());

  int healed = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    mpsim::FaultPlan plan;
    plan.seed = seed;
    plan.drop_rate = 0.05;
    plan.duplicate_rate = 0.05;
    plan.delay_rate = 0.10;
    plan.ack_drop_rate = 0.02;
    const int flip_rank = static_cast<int>(seed % 4);
    plan.bit_flips.push_back({flip_rank, 0.0, /*site=*/0, /*word=*/seed,
                              /*bit=*/static_cast<int>(seed * 6 % 64)});
    if (seed % 2 == 0) {
      const int crash_rank = static_cast<int>((seed / 2) % 4);
      plan.crashes.push_back(
          {crash_rank,
           0.5 * probe.run.rank_time[static_cast<std::size_t>(crash_rank)]});
      plan.spare_ranks = 1;
    }
    const DistFactorResult run = distributed_factor_checked(
        sym, map, {}, FactorKind::kCholesky, {}, plan, resilience);
    if (run.status.ok()) {
      expect_factors_bitwise_equal(sym, clean.factor, run.factor);
      ++healed;
    } else {
      EXPECT_NE(run.status.code, StatusCode::kOk);
      EXPECT_FALSE(run.status.message.empty());
    }
  }
  // The defenses are expected to heal the large majority of these seeds.
  EXPECT_GE(healed, 5);
}

}  // namespace
}  // namespace parfact
