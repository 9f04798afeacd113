#include "mf/dag_factor.h"

#include <algorithm>
#include <utility>

#include "dense/kernels.h"
#include "runtime/scheduler.h"
#include "support/error.h"
#include "support/timer.h"

namespace parfact::detail {
namespace {

using rt::TaskKind;
using rt::tag_t;

/// Minimum flops before a front stage is split into more than one task, and
/// minimum C rows per slab: a slab should be a few milliseconds of
/// packed-engine work so per-task overhead (heap ops, atomics) stays
/// negligible. Pure scheduling knobs — slab boundaries never change
/// numeric results.
constexpr count_t kTaskMinFlops = 4'000'000;
constexpr index_t kTaskSlabMinRows = 64;

std::size_t block_size(const SymbolicFactor& sym, index_t s) {
  const auto b = static_cast<std::size_t>(sym.sn_below(s));
  return b * b;
}

}  // namespace

FactorDag::FactorDag(const SymbolicFactor& sym, CholeskyFactor& factor,
                     FactorKind kind, std::span<real_t> d,
                     real_t pivot_magnitude, count_t fuse_flops,
                     int n_workers)
    : sym_(sym),
      factor_(factor),
      kind_(kind),
      d_(d),
      pivot_magnitude_(pivot_magnitude),
      fuse_flops_(fuse_flops),
      n_workers_(std::max(1, n_workers)),
      blocks_(static_cast<std::size_t>(sym.n_supernodes)),
      update_of_(static_cast<std::size_t>(sym.n_supernodes)),
      m_of_(static_cast<std::size_t>(sym.n_supernodes)),
      m_refs_(static_cast<std::size_t>(sym.n_supernodes)),
      update_done_(static_cast<std::size_t>(sym.n_supernodes)) {}

index_t FactorDag::slab_count(count_t flops, index_t rows) const {
  if (n_workers_ <= 1 || flops < kTaskMinFlops) return 1;
  const index_t by_rows = rows / kTaskSlabMinRows;
  const index_t by_workers = 4 * static_cast<index_t>(n_workers_);
  const auto by_flops = static_cast<index_t>(flops / kTaskMinFlops) + 1;
  return std::max<index_t>(1, std::min({by_rows, by_workers, by_flops}));
}

std::unique_ptr<FrontScratch> FactorDag::acquire_scratch() {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (scratch_pool_.empty())
    return std::make_unique<FrontScratch>(sym_.n);
  auto s = std::move(scratch_pool_.back());
  scratch_pool_.pop_back();
  return s;
}

void FactorDag::release_scratch(std::unique_ptr<FrontScratch> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_pool_.push_back(std::move(scratch));
}

std::span<real_t> FactorDag::allocate_block(index_t s) {
  const auto su = static_cast<std::size_t>(s);
  const std::size_t size = block_size(sym_, s);
  blocks_[su] = std::make_unique_for_overwrite<real_t[]>(size);
  update_of_[su] = blocks_[su].get();
  return {update_of_[su], size};
}

/// Update-stack accounting once supernode s's assembly has consumed its
/// children: the children's blocks die, s's block is now live.
void FactorDag::finish_assembly(index_t s) {
  mem_.add(block_size(sym_, s) * sizeof(real_t));
  for (index_t c : sym_.children(s)) {
    mem_.sub(block_size(sym_, c) * sizeof(real_t));
    blocks_[static_cast<std::size_t>(c)].reset();
    update_of_[static_cast<std::size_t>(c)] = nullptr;
  }
}

void FactorDag::emit(rt::TaskGraph& graph) {
  for (index_t s = 0; s < sym_.n_supernodes; ++s) {
    if (sym_.sn_flops[s] < fuse_flops_) {
      emit_fused(graph, s);
    } else {
      emit_split(graph, s);
    }
  }
}

void FactorDag::emit_fused(rt::TaskGraph& graph, index_t s) {
  const tag_t elim = rt::make_tag(TaskKind::kElim, static_cast<uint64_t>(s));
  graph.add_task(
      elim,
      [this, s] {
        auto scratch = acquire_scratch();
        std::unique_ptr<real_t[]> m;
        std::size_t m_size = 0;
        if (kind_ == FactorKind::kLdlt) {
          m_size = static_cast<std::size_t>(sym_.sn_below(s)) * sym_.sn_cols(s);
          m = std::make_unique_for_overwrite<real_t[]>(m_size);
        }
        const MatrixView panel = factor_.panel(s);
        panel.fill(0.0);
        const count_t boosted =
            eliminate_front(sym_, s, update_of_, panel, allocate_block(s),
                            {m.get(), m_size}, *scratch, kind_, d_,
                            pivot_magnitude_);
        release_scratch(std::move(scratch));
        if (boosted > 0)
          perturbations_.fetch_add(boosted, std::memory_order_relaxed);
        finish_assembly(s);
      },
      static_cast<double>(std::max<count_t>(sym_.sn_flops[s], 1)));
  std::vector<tag_t> deps;
  for (index_t c : sym_.children(s)) {
    const auto& done = update_done_[static_cast<std::size_t>(c)];
    deps.insert(deps.end(), done.begin(), done.end());
  }
  graph.declare_deps(elim, deps);
  update_done_[static_cast<std::size_t>(s)] = {elim};
}

void FactorDag::emit_split(rt::TaskGraph& graph, index_t s) {
  const auto su = static_cast<std::size_t>(s);
  const auto k = static_cast<uint64_t>(s);
  const index_t p = sym_.sn_cols(s);
  const index_t b = sym_.sn_below(s);
  const index_t first = sym_.sn_start[s];

  // --- ASSEMBLE: scatter + fixed-order extend-add, consume children. ---
  const tag_t asm_tag = rt::make_tag(TaskKind::kAssemble, k);
  count_t asm_cost = sym_.a.col_ptr[sym_.sn_start[s + 1]] -
                     sym_.a.col_ptr[first];
  for (index_t c : sym_.children(s)) {
    const count_t cb = sym_.sn_below(c);
    asm_cost += cb * (cb + 1) / 2;
  }
  graph.add_task(
      asm_tag,
      [this, s] {
        auto scratch = acquire_scratch();
        const MatrixView panel = factor_.panel(s);
        panel.fill(0.0);
        assemble_front(sym_, s, update_of_, panel, allocate_block(s),
                       *scratch, kind_);
        release_scratch(std::move(scratch));
        finish_assembly(s);
      },
      static_cast<double>(std::max<count_t>(asm_cost, 1)));
  {
    std::vector<tag_t> deps;
    for (index_t c : sym_.children(s)) {
      const auto& done = update_done_[static_cast<std::size_t>(c)];
      deps.insert(deps.end(), done.begin(), done.end());
    }
    graph.declare_deps(asm_tag, deps);
  }

  // --- POTRF / LDLᵀ of the diagonal block (serial, one task). ---
  const tag_t potrf_tag = rt::make_tag(TaskKind::kPotrf, k);
  graph.add_task(
      potrf_tag,
      [this, s] {
        const count_t boosted =
            factor_front_diag(sym_, s, factor_.panel(s), kind_, d_,
                              pivot_magnitude_);
        if (boosted > 0)
          perturbations_.fetch_add(boosted, std::memory_order_relaxed);
      },
      static_cast<double>(
          std::max<count_t>(partial_cholesky_flops(p, p), 1)));
  graph.declare_deps(potrf_tag, {asm_tag});

  if (b == 0) {
    update_done_[su] = {potrf_tag};
    return;
  }

  // --- Panel TRSM, split into row slabs. Each slab runs the full serial
  // solve on its rows, so any split is bitwise identical to one call. ---
  const count_t trsm_flops = static_cast<count_t>(b) * p * (p + 1);
  const index_t st = slab_count(trsm_flops, b);
  std::vector<tag_t> trsm_tags(static_cast<std::size_t>(st));
  std::vector<index_t> trsm_hi(static_cast<std::size_t>(st));
  for (index_t t = 0; t < st; ++t) {
    const index_t r0 = t * b / st;
    const index_t r1 = (t + 1) * b / st;
    trsm_hi[static_cast<std::size_t>(t)] = r1;
    const tag_t tag =
        rt::make_tag(TaskKind::kTrsm, k, static_cast<uint64_t>(t));
    trsm_tags[static_cast<std::size_t>(t)] = tag;
    graph.add_task(
        tag,
        [this, s, p, b, r0, r1] {
          if (r0 >= r1) return;
          MatrixView panel = factor_.panel(s);
          ConstMatrixView l11 = panel.block(0, 0, p, p);
          trsm_right_lower_trans(l11, panel.block(p + r0, 0, r1 - r0, p));
        },
        static_cast<double>(
            std::max<count_t>(trsm_flops * (r1 - r0) / std::max(b, 1), 1)));
    graph.declare_deps(tag, {potrf_tag});
  }

  tag_t prep_tag = 0;
  if (kind_ == FactorKind::kLdlt) {
    // --- PREP: copy M = L21 D, rescale panel to L21. One task; it reads
    // and writes the whole panel, so it needs every TRSM slab. ---
    prep_tag = rt::make_tag(TaskKind::kPrep, k);
    m_refs_[su] = std::make_unique<std::atomic<index_t>>(0);
    graph.add_task(
        prep_tag,
        [this, s, p, b, first] {
          MatrixView l21 = factor_.panel(s).block(p, 0, b, p);
          auto& m = m_of_[static_cast<std::size_t>(s)];
          m.resize(static_cast<std::size_t>(b) * p);
          ldlt_scale_panel(l21, d_, first, m);
        },
        static_cast<double>(2 * static_cast<count_t>(b) * p));
    graph.declare_deps(prep_tag, trsm_tags);
  }

  // --- Trailing update, split into row slabs. ---
  const count_t upd_flops = (kind_ == FactorKind::kCholesky ? 1 : 2) *
                            static_cast<count_t>(b) * b * p;
  std::vector<tag_t> upd_tags;
  if (kind_ == FactorKind::kCholesky) {
    index_t slabs = slab_count(upd_flops, b);
    if (!syrk_splittable(b, p)) slabs = 1;  // small path: must stay whole
    if (slabs <= 1) {
      const tag_t tag = rt::make_tag(TaskKind::kUpdate, k);
      graph.add_task(
          tag,
          [this, s, p, b] {
            MatrixView update{update_of_[static_cast<std::size_t>(s)], b, b,
                              b};
            ConstMatrixView l21 = factor_.panel(s).block(p, 0, b, p);
            syrk_lower_update(update, l21);
          },
          static_cast<double>(std::max<count_t>(upd_flops, 1)));
      graph.declare_deps(tag, trsm_tags);
      upd_tags.push_back(tag);
    } else {
      const std::vector<index_t> bound = syrk_slab_bounds(b, slabs);
      for (index_t t = 0; t < slabs; ++t) {
        const index_t r0 = bound[static_cast<std::size_t>(t)];
        const index_t r1 = bound[static_cast<std::size_t>(t) + 1];
        const tag_t tag =
            rt::make_tag(TaskKind::kUpdate, k, static_cast<uint64_t>(t));
        const count_t slab_flops =
            static_cast<count_t>(r1 - r0) * (r1 + r0) * p;
        graph.add_task(
            tag,
            [this, s, p, b, r0, r1] {
              MatrixView update{update_of_[static_cast<std::size_t>(s)], b,
                                b, b};
              ConstMatrixView l21 = factor_.panel(s).block(p, 0, b, p);
              syrk_lower_update_slab(update, l21, r0, r1);
            },
            static_cast<double>(std::max<count_t>(slab_flops, 1)));
        // Slab [r0, r1) reads L21 rows below r1 only: depend on exactly the
        // TRSM slabs covering those rows (pipelines the panel solve into
        // the update instead of a front-wide barrier).
        std::vector<tag_t> deps;
        for (index_t u = 0; u < st; ++u) {
          deps.push_back(trsm_tags[static_cast<std::size_t>(u)]);
          if (trsm_hi[static_cast<std::size_t>(u)] >= r1) break;
        }
        graph.declare_deps(tag, deps);
        upd_tags.push_back(tag);
      }
    }
  } else {
    // LDLᵀ: update slabs read the rescaled L21 rows plus all of M, so they
    // depend on PREP (which already gates on every TRSM slab). The serial
    // gemm_nt kernel's per-element summation order is row-partition-
    // invariant, so disjoint row slabs reproduce the one-call result.
    const index_t slabs = slab_count(upd_flops, b);
    for (index_t t = 0; t < slabs; ++t) {
      const index_t r0 = t * b / slabs;
      const index_t r1 = (t + 1) * b / slabs;
      const tag_t tag =
          rt::make_tag(TaskKind::kUpdate, k, static_cast<uint64_t>(t));
      graph.add_task(
          tag,
          [this, s, p, b, r0, r1, slabs] {
            if (r0 < r1) {
              auto& m = m_of_[static_cast<std::size_t>(s)];
              MatrixView update{update_of_[static_cast<std::size_t>(s)], b,
                                b, b};
              ConstMatrixView l21 = factor_.panel(s).block(p, 0, b, p);
              gemm_nt_update(update.block(r0, 0, r1 - r0, b),
                             l21.block(r0, 0, r1 - r0, p),
                             ConstMatrixView{m.data(), b, p, b});
            }
            // Last slab out frees M (its only consumer is this stage).
            if (m_refs_[static_cast<std::size_t>(s)]->fetch_add(1) + 1 ==
                slabs) {
              m_of_[static_cast<std::size_t>(s)] = {};
            }
          },
          static_cast<double>(std::max<count_t>(
              upd_flops * (r1 - r0) / std::max(b, 1), 1)));
      graph.declare_deps(tag, {prep_tag});
      upd_tags.push_back(tag);
    }
  }
  update_done_[su] = std::move(upd_tags);
}

}  // namespace parfact::detail

namespace parfact {

CholeskyFactor multifrontal_factor_parallel(const SymbolicFactor& sym,
                                            ThreadPool& pool,
                                            FactorStats* stats,
                                            FactorKind kind,
                                            count_t coop_flops,
                                            PivotPolicy pivot,
                                            CancelToken cancel) {
  CholeskyFactor factor(sym);
  multifrontal_refactor_parallel(sym, factor, pool, stats, kind, coop_flops,
                                 pivot, std::move(cancel));
  return factor;
}

void multifrontal_refactor_parallel(const SymbolicFactor& sym,
                                    CholeskyFactor& factor, ThreadPool& pool,
                                    FactorStats* stats, FactorKind kind,
                                    count_t coop_flops, PivotPolicy pivot,
                                    CancelToken cancel) {
  PARFACT_CHECK(&factor.symbolic() == &sym);
  WallTimer timer;
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = factor.allocate_diag();

  detail::FactorDag dag(sym, factor, kind, d, pivot_magnitude(pivot, sym.a),
                        coop_flops, pool.size() + 1);
  rt::TaskGraph graph;
  dag.emit(graph);
  rt::run_graph(graph, pool, std::move(cancel));

  if (stats != nullptr) {
    stats->seconds = timer.seconds();
    stats->flops = sym.total_flops;
    stats->peak_update_bytes = dag.peak_update_bytes();
    stats->pivot_perturbations = dag.perturbations();
  }
}

}  // namespace parfact
