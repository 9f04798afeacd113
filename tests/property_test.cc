// Property-based sweeps: randomized inputs, structural invariants.
//
// These complement the per-module unit tests with broad randomized coverage:
// every invariant here must hold for *any* valid input, so the tests draw
// many random instances and check the property, not specific values.
#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "api/solver.h"
#include "dist/dist_factor.h"
#include "dist/front_blocks.h"
#include "dist/mapping.h"
#include "mf/multifrontal.h"
#include "mpsim/machine.h"
#include "solve/solve.h"
#include "sparse/gen.h"
#include "sparse/ops.h"
#include "support/prng.h"
#include "symbolic/etree.h"

namespace parfact {
namespace {

// --- FrontBlocking: the tiling is a partition for any (p, b, nb) ------------

struct BlockCase {
  index_t p, b, nb;
};

class FrontBlockingProperty : public ::testing::TestWithParam<BlockCase> {};

TEST_P(FrontBlockingProperty, TilesPartitionTheFront) {
  const auto [p, b, nb] = GetParam();
  const FrontBlocking fb = FrontBlocking::make(p, b, nb);
  // Blocks tile [0, p+b) exactly, in order, with positive sizes.
  index_t cursor = 0;
  for (index_t i = 0; i < fb.nB; ++i) {
    EXPECT_EQ(fb.start(i), cursor);
    EXPECT_GT(fb.size(i), 0);
    EXPECT_LE(fb.size(i), nb);
    cursor += fb.size(i);
  }
  EXPECT_EQ(cursor, p + b);
  // Panel region is exactly the first kp blocks.
  if (fb.kp > 0) {
    EXPECT_EQ(fb.start(fb.kp - 1) + fb.size(fb.kp - 1), p);
  }
  // block_of inverts the partition.
  for (index_t r = 0; r < p + b; ++r) {
    const index_t blk = fb.block_of(r);
    EXPECT_GE(r, fb.start(blk));
    EXPECT_LT(r, fb.start(blk) + fb.size(blk));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FrontBlockingProperty,
    ::testing::Values(BlockCase{1, 0, 1}, BlockCase{1, 1, 1},
                      BlockCase{5, 0, 8}, BlockCase{8, 8, 8},
                      BlockCase{9, 7, 4}, BlockCase{100, 0, 48},
                      BlockCase{100, 37, 48}, BlockCase{3, 200, 16},
                      BlockCase{48, 48, 48}, BlockCase{47, 49, 48}));

// --- Elimination tree: invariants on random patterns -------------------------

class EtreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EtreeProperty, ParentExceedsChildAndPostorderContiguous) {
  const SparseMatrix a = random_spd(150, 4, GetParam());
  const auto parent = elimination_tree(a);
  for (index_t j = 0; j < a.rows; ++j) {
    if (parent[j] != kNone) {
      EXPECT_GT(parent[j], j);
    }
  }
  const auto post = tree_postorder(parent);
  EXPECT_TRUE(is_permutation(post));
  EXPECT_TRUE(is_postordered(relabel_tree(parent, post)));
  // Column counts are at least 1 (diagonal) and at most n - j.
  const auto counts = cholesky_col_counts(a, parent);
  for (index_t j = 0; j < a.rows; ++j) {
    EXPECT_GE(counts[j], 1);
    EXPECT_LE(counts[j], a.rows - j);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EtreeProperty,
                         ::testing::Range<std::uint64_t>(100, 112));

// --- Symbolic + numeric: residual property across random instances ----------

class SolveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolveProperty, RandomSpdSolvesToMachinePrecision) {
  const std::uint64_t seed = GetParam();
  Prng rng(seed);
  const index_t n = 50 + rng.next_index(200);
  const index_t deg = 2 + rng.next_index(5);
  const SparseMatrix a = random_spd(n, deg, seed * 7 + 1);
  Solver solver;
  solver.analyze(a);
  solver.factorize();
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.next_real(-10, 10);
  const auto x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-12)
      << "seed " << seed << " n " << n << " deg " << deg;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveProperty,
                         ::testing::Range<std::uint64_t>(200, 216));

// --- Supernode partition invariants across amalgamation settings -------------

class AmalgamationProperty : public ::testing::TestWithParam<index_t> {};

TEST_P(AmalgamationProperty, PartitionInvariantsHoldForAnyRelaxation) {
  const index_t relax = GetParam();
  AmalgamationOptions opts;
  opts.enable = relax > 0;
  opts.relax_small = relax;
  opts.relax_ratio = 0.02 * static_cast<double>(relax);
  const SparseMatrix a = grid_laplacian_3d(7, 6, 8, 7);
  const SymbolicFactor sym = analyze(a, opts);
  sym.validate();
  // Strict nonzeros never depend on the amalgamation knob.
  static count_t reference = 0;
  if (relax == 0) reference = sym.nnz_strict;
  if (reference != 0) {
    EXPECT_EQ(sym.nnz_strict, reference);
  }
  // Stored >= strict; flops consistent with front shapes.
  EXPECT_GE(sym.nnz_stored, sym.nnz_strict);
  count_t flops = 0;
  for (index_t s = 0; s < sym.n_supernodes; ++s) {
    flops += partial_cholesky_flops(sym.sn_cols(s), sym.front_order(s));
  }
  EXPECT_EQ(flops, sym.total_flops);
}

INSTANTIATE_TEST_SUITE_P(Relax, AmalgamationProperty,
                         ::testing::Values(0, 2, 4, 8, 16, 32, 64));

// --- Mapping: nesting invariant for arbitrary trees and rank counts ----------

class MappingProperty : public ::testing::TestWithParam<int> {};

TEST_P(MappingProperty, NestingHoldsOnRandomProblems) {
  const int p = GetParam();
  for (std::uint64_t seed : {300u, 301u, 302u}) {
    const SparseMatrix a = random_spd(300, 3, seed);
    const SymbolicFactor sym = analyze_nested_dissection(a);
    for (const auto strategy :
         {MappingStrategy::kSubtree2d, MappingStrategy::kSubtree1d,
          MappingStrategy::kFlat}) {
      const FrontMap map = build_front_map(sym, p, strategy);
      map.validate(sym);  // throws on violated nesting/grid invariants
      // Every rank participates somewhere (no idle rank at the roots).
      std::vector<bool> used(static_cast<std::size_t>(p), false);
      for (index_t s = 0; s < sym.n_supernodes; ++s) {
        for (int r = map.rank_begin[s];
             r < map.rank_begin[s] + map.rank_count[s]; ++r) {
          used[r] = true;
        }
      }
      EXPECT_TRUE(std::all_of(used.begin(), used.end(),
                              [](bool u) { return u; }))
          << "p=" << p << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, MappingProperty,
                         ::testing::Values(1, 2, 3, 5, 7, 12, 16, 33, 64,
                                           100));

// --- mpsim: virtual time is schedule-independent ------------------------------

TEST(MpsimProperty, RandomProgramsAreDeterministic) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto program = [seed](mpsim::Comm& c) {
      Prng rng(seed + static_cast<std::uint64_t>(c.rank()) * 977);
      // Random deterministic communication pattern: each rank sends a few
      // messages to pseudo-random peers and receives the matching ones.
      // To keep it deadlock-free, communicate round-by-round with a
      // globally known pattern derived from the round and rank count.
      const int p = c.size();
      for (int round = 0; round < 6; ++round) {
        c.advance_compute(1 + rng.next_below(100000));
        const int shift = 1 + (round * 3) % (p - 1);
        const int dst = (c.rank() + shift) % p;
        const int src = (c.rank() + p - shift) % p;
        std::vector<double> payload(1 + rng.next_below(64),
                                    static_cast<double>(c.rank()));
        c.send_vec(dst, round, payload);
        mpsim::Request r = c.irecv(src, round);
        const auto in = c.wait_vec<double>(r);
        EXPECT_EQ(static_cast<int>(in.front()), src);
      }
    };
    const auto r1 = mpsim::run_spmd(7, {}, program);
    const auto r2 = mpsim::run_spmd(7, {}, program);
    EXPECT_EQ(r1.rank_time, r2.rank_time) << "seed " << seed;
    EXPECT_EQ(r1.total_bytes, r2.total_bytes);
  }
}

// --- Distributed == serial for random (matrix, P, block) draws ---------------

TEST(DistProperty, RandomConfigurationsMatchSerial) {
  Prng rng(999);
  for (int trial = 0; trial < 6; ++trial) {
    const index_t n = 60 + rng.next_index(120);
    const SparseMatrix a = random_spd(n, 3, rng.next_u64());
    const SymbolicFactor sym = analyze_nested_dissection(a);
    const int p = 1 + static_cast<int>(rng.next_below(12));
    const index_t nb = 4 + rng.next_index(44);
    const auto strategy = rng.next_below(2) == 0
                              ? MappingStrategy::kSubtree2d
                              : MappingStrategy::kSubtree1d;
    const FrontMap map = build_front_map(sym, p, strategy, nb);
    const DistFactorResult dist = distributed_factor(sym, map);
    const CholeskyFactor serial = multifrontal_factor(sym);
    for (index_t s = 0; s < sym.n_supernodes; ++s) {
      const ConstMatrixView pa = serial.panel(s);
      const ConstMatrixView pb = dist.factor.panel(s);
      for (index_t j = 0; j < pa.cols; ++j) {
        for (index_t i = j; i < pa.rows; ++i) {
          ASSERT_NEAR(pa.at(i, j), pb.at(i, j), 1e-9)
              << "trial " << trial << " p " << p << " nb " << nb;
        }
      }
    }
  }
}

}  // namespace
}  // namespace parfact
