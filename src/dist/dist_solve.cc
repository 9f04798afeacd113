#include "dist/dist_solve.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "dense/kernels.h"
#include "dist/front_blocks.h"
#include "support/error.h"

namespace parfact {
namespace {

constexpr int kTagBelowPartial = 1;  // aggregated below-row reductions (fwd)
constexpr int kTagContrib = 3;     // child below-row contributions (forward)
constexpr int kTagFwdPartial = 4;  // grid-row partial reductions (forward)
constexpr int kTagFwdX = 5;        // solved panel segment broadcast (forward)
constexpr int kTagBwdPartial = 6;  // in-panel partials (backward)
constexpr int kTagBwdX = 7;        // solved panel segment broadcast (backward)
constexpr int kTagStride = 8;      // message kinds per (front, RHS block)

struct SolveTriple {
  index_t row;  // parent-front-local row
  index_t rhs;  // right-hand-side column (global column index)
  real_t value;
};

class SolveProgram {
 public:
  SolveProgram(const SymbolicFactor& sym, const FrontMap& map,
               const CholeskyFactor& factor, const std::vector<real_t>& b,
               index_t nrhs, const DistSolveConfig& config,
               std::vector<real_t>& x_out, mpsim::Comm& comm)
      : sym_(sym),
        map_(map),
        factor_(factor),
        b_(b),
        nrhs_(nrhs),
        wb_(std::min(config.rhs_block, nrhs)),
        nb_((nrhs + config.rhs_block - 1) / config.rhs_block),
        x_out_(x_out),
        comm_(comm) {
    x_known_.assign(static_cast<std::size_t>(sym.n) * nrhs, 0.0);
  }

  void run() {
    for (index_t s = 0; s < sym_.n_supernodes; ++s) {
      if (map_.participates(s, comm_.rank())) forward_front(s);
    }
    for (index_t s = sym_.n_supernodes - 1; s >= 0; --s) {
      if (map_.participates(s, comm_.rank())) backward_front(s);
    }
  }

 private:
  // --- RHS block partition: the compute and message granule. ---
  [[nodiscard]] index_t col0(index_t blk) const { return blk * wb_; }
  [[nodiscard]] index_t bw(index_t blk) const {
    return std::min(wb_, nrhs_ - col0(blk));
  }
  /// Channel tag of (front, RHS block, message kind). nb_ is global, so
  /// tags are unique across fronts.
  [[nodiscard]] int tag(index_t s, index_t blk, int base) const {
    return kTagStride * (static_cast<int>(s) * static_cast<int>(nb_) +
                         static_cast<int>(blk)) +
           base;
  }
  /// Columns [col0(blk), col0+bw) of a rows x nrhs_ column-major buffer.
  [[nodiscard]] std::vector<real_t> slice(const std::vector<real_t>& v,
                                          index_t rows, index_t blk) const {
    std::vector<real_t> out(static_cast<std::size_t>(rows) * bw(blk));
    std::copy_n(v.data() + static_cast<std::size_t>(col0(blk)) * rows,
                out.size(), out.data());
    return out;
  }
  void add_into_block(std::vector<real_t>& dst, index_t rows, index_t blk,
                      const real_t* src) const {
    real_t* d = dst.data() + static_cast<std::size_t>(col0(blk)) * rows;
    const std::size_t count = static_cast<std::size_t>(rows) * bw(blk);
    for (std::size_t i = 0; i < count; ++i) d[i] += src[i];
  }
  /// View of columns [col0(blk), +bw) of a rows x nrhs_ buffer.
  [[nodiscard]] MatrixView block_view(std::vector<real_t>& v, index_t rows,
                                      index_t blk) const {
    return {v.data() + static_cast<std::size_t>(col0(blk)) * rows, rows,
            bw(blk), rows};
  }

  /// Factor block (ib, jb), jb < kp, of front s.
  [[nodiscard]] ConstMatrixView l_block(index_t s, const FrontBlocking& fb,
                                        index_t ib, index_t jb) const {
    return ConstMatrixView{factor_.panel(s)}.block(
        fb.start(ib), fb.start(jb), fb.size(ib), fb.size(jb));
  }

  /// Ranks of front `c` that carry extend-add contributions to its parent:
  /// the grid-column-0 collectors owning at least one update block row.
  /// Deterministic from the map alone, so senders and receivers agree on
  /// exactly which messages exist — no empty-message traffic.
  [[nodiscard]] std::vector<int> contrib_ranks(index_t c) const {
    const FrontBlocking cfb = FrontBlocking::make(
        sym_.sn_cols(c), sym_.sn_below(c), map_.block_size);
    const int cpr = map_.grid_rows[c];
    std::vector<int> out;
    for (int ri = 0; ri < cpr; ++ri) {
      for (index_t ib = cfb.kp; ib < cfb.nB; ++ib) {
        if (static_cast<int>(ib) % cpr == ri) {
          out.push_back(map_.grid_rank(c, ri, 0));  // ascending: gc == 0
          break;
        }
      }
    }
    return out;
  }

  void forward_front(index_t s) {
    const FrontBlocking fb = FrontBlocking::make(
        sym_.sn_cols(s), sym_.sn_below(s), map_.block_size);
    const int pr = map_.grid_rows[s];
    const int pc = map_.grid_cols[s];
    // Spectators (gr == gc == -1) hold no partials; all guards below skip.
    const auto [gr, gc] = map_.grid_coords(s, comm_.rank());
    const index_t first = sym_.sn_start[s];
    const auto rows = sym_.below_rows(s);

    // Per-block-row accumulators, full RHS width: additions from children
    // (diag owners and collectors) plus -L(ib,kb)·x_kb partials.
    std::map<index_t, std::vector<real_t>> part;
    auto part_of = [&](index_t ib) -> std::vector<real_t>& {
      auto& v = part[ib];
      if (v.empty()) {
        v.assign(static_cast<std::size_t>(fb.size(ib)) * nrhs_, 0.0);
      }
      return v;
    };

    // 1. Child contributions: one message per (child, collector rank, RHS
    // block), merged lazily so block 0 can start while the children are
    // still reducing the later blocks.
    std::vector<int> contrib_src;
    for (index_t c : sym_.children(s)) {
      for (int src : contrib_ranks(c)) contrib_src.push_back(src);
    }
    std::vector<std::vector<mpsim::Request>> creq(
        static_cast<std::size_t>(nb_));
    for (index_t blk = 0; blk < nb_; ++blk) {
      for (int src : contrib_src) {
        creq[blk].push_back(comm_.irecv(src, tag(s, blk, kTagContrib)));
      }
    }
    std::vector<char> merged(static_cast<std::size_t>(nb_), 0);
    auto need_block = [&](index_t blk) {
      if (merged[blk]) return;
      merged[blk] = 1;
      for (mpsim::Request& r : creq[blk]) {
        const auto triples = comm_.wait_vec<SolveTriple>(r);
        for (const SolveTriple& t : triples) {
          const index_t ib = fb.block_of(t.row);
          part_of(ib)[static_cast<std::size_t>(t.rhs) * fb.size(ib) +
                      (t.row - fb.start(ib))] += t.value;
        }
        comm_.advance_bytes(static_cast<count_t>(triples.size()) *
                            static_cast<count_t>(sizeof(SolveTriple)));
      }
    };

    // 2. Panel sweep: kb outer, RHS block inner, with preposted per-block
    // receives and per-block sends.
    for (index_t kb = 0; kb < fb.kp; ++kb) {
      const int kbr = static_cast<int>(kb) % pr;
      const int kbc = static_cast<int>(kb) % pc;
      const index_t bk = fb.size(kb);
      const int diag_rank = map_.grid_rank(s, kbr, kbc);
      const int max_sender_col =
          std::min<int>(pc, static_cast<int>(std::min(kb, fb.kp)));
      const bool is_diag = comm_.rank() == diag_rank;
      const bool is_sender = gr == kbr && gc != kbc && gc < max_sender_col;
      const bool is_col_owner =
          gc == kbc && fb.grid_row_owns_below(kb, gr, pr);

      std::vector<std::vector<mpsim::Request>> preq;  // [blk][sender col]
      std::vector<mpsim::Request> xreq;               // [blk]
      if (is_diag) {
        preq.resize(static_cast<std::size_t>(nb_));
        for (index_t blk = 0; blk < nb_; ++blk) {
          for (int c = 0; c < max_sender_col; ++c) {
            if (c == kbc) continue;
            preq[blk].push_back(comm_.irecv(map_.grid_rank(s, kbr, c),
                                            tag(s, blk, kTagFwdPartial)));
          }
        }
      } else if (is_col_owner) {
        for (index_t blk = 0; blk < nb_; ++blk) {
          xreq.push_back(comm_.irecv(diag_rank, tag(s, blk, kTagFwdX)));
        }
      }
      for (index_t blk = 0; blk < nb_; ++blk) {
        need_block(blk);
        const index_t w = bw(blk);
        if (is_sender) {
          comm_.send_vec(diag_rank, tag(s, blk, kTagFwdPartial),
                         slice(part_of(kb), bk, blk));
        }
        std::vector<real_t> xblk;
        if (is_diag) {
          xblk = slice(part_of(kb), bk, blk);
          for (index_t cc = 0; cc < w; ++cc) {
            const real_t* bc =
                b_.data() + static_cast<std::size_t>(col0(blk) + cc) * sym_.n +
                first + fb.start(kb);
            for (index_t i = 0; i < bk; ++i) {
              xblk[static_cast<std::size_t>(cc) * bk + i] += bc[i];
            }
          }
          for (mpsim::Request& r : preq[blk]) {
            const auto partial = comm_.wait_vec<real_t>(r);
            for (std::size_t i = 0; i < xblk.size(); ++i) {
              xblk[i] += partial[i];
            }
          }
          trsm_left_lower(l_block(s, fb, kb, kb),
                          MatrixView{xblk.data(), bk, w, bk});
          comm_.advance_compute(static_cast<count_t>(bk) * bk * w);
          auto& y = y_fwd_[{s, kb}];
          if (y.empty()) {
            y.assign(static_cast<std::size_t>(bk) * nrhs_, 0.0);
          }
          std::copy_n(xblk.data(), xblk.size(),
                      y.data() + static_cast<std::size_t>(col0(blk)) * bk);
          for (int ri = 0; ri < pr; ++ri) {
            if (ri == kbr || !fb.grid_row_owns_below(kb, ri, pr)) continue;
            comm_.send_vec(map_.grid_rank(s, ri, kbc), tag(s, blk, kTagFwdX),
                           xblk);
          }
        } else if (is_col_owner) {
          xblk = comm_.wait_vec<real_t>(xreq[blk]);
        }
        if (gc == kbc && !xblk.empty()) {
          for (index_t ib = kb + 1; ib < fb.nB; ++ib) {
            if (static_cast<int>(ib) % pr != gr) continue;
            gemm_nn_update(block_view(part_of(ib), fb.size(ib), blk),
                           l_block(s, fb, ib, kb),
                           ConstMatrixView{xblk.data(), bk, w, bk});
            comm_.advance_compute(2 * static_cast<count_t>(fb.size(ib)) * bk *
                                  w);
          }
        }
      }
    }

    // 3. Reduce below-row partials to the per-grid-row collectors (column
    // 0) and route them to the parent as (parent-local row, rhs, value)
    // triples: per RHS block, with every owned block row aggregated into
    // one message per destination, and the parent-bound triples for block
    // k leaving before block k+1 is reduced.
    const index_t parent = sym_.sn_parent[s];
    int pbegin = 0, pcount = 0;
    FrontBlocking pfb = fb;  // placeholder; rebuilt when parent exists
    index_t pfirst = 0, pblock_end = 0;
    std::span<const index_t> prows;
    if (parent != kNone) {
      pbegin = map_.rank_begin[parent];
      pcount = map_.rank_count[parent];
      pfb = FrontBlocking::make(sym_.sn_cols(parent), sym_.sn_below(parent),
                                map_.block_size);
      pfirst = sym_.sn_start[parent];
      pblock_end = sym_.sn_start[parent + 1];
      prows = sym_.below_rows(parent);
    }
    const int max_collector_col = std::min<int>(pc, static_cast<int>(fb.kp));
    // Parent rank consuming front-local row `lr` of the parent.
    auto parent_dest = [&](index_t grow) -> std::pair<index_t, int> {
      index_t lr;
      if (grow < pblock_end) {
        lr = grow - pfirst;
      } else {
        const auto it = std::lower_bound(prows.begin(), prows.end(), grow);
        PARFACT_DCHECK(it != prows.end() && *it == grow);
        lr = pfb.p + static_cast<index_t>(it - prows.begin());
      }
      const index_t pib = pfb.block_of(lr);
      const int dest =
          lr < pfb.p
              ? map_.grid_rank(
                    parent,
                    static_cast<int>(pib) % map_.grid_rows[parent],
                    static_cast<int>(pib) % map_.grid_cols[parent])
              : map_.grid_rank(
                    parent,
                    static_cast<int>(pib) % map_.grid_rows[parent], 0);
      return {lr, dest};
    };
    // Block rows of the update region this grid row owns.
    std::vector<index_t> mine;
    if (gr >= 0) {
      for (index_t ib = fb.kp; ib < fb.nB; ++ib) {
        if (static_cast<int>(ib) % pr == gr) mine.push_back(ib);
      }
    }

    // Senders concatenate all of their block rows (ascending) into one
    // message per RHS block; the collector splits in the same order and
    // adds the senders in ascending grid column.
    const bool is_below_sender =
        gr >= 0 && gc != 0 && gc < max_collector_col && !mine.empty();
    const bool is_collector = gr >= 0 && gc == 0 && !mine.empty();
    std::vector<std::vector<mpsim::Request>> breq;  // [blk][sender col - 1]
    if (is_collector) {
      breq.resize(static_cast<std::size_t>(nb_));
      for (index_t blk = 0; blk < nb_; ++blk) {
        for (int c = 1; c < max_collector_col; ++c) {
          breq[blk].push_back(comm_.irecv(map_.grid_rank(s, gr, c),
                                          tag(s, blk, kTagBelowPartial)));
        }
      }
    }
    for (index_t blk = 0; blk < nb_; ++blk) {
      need_block(blk);
      if (is_below_sender) {
        std::vector<real_t> agg;
        for (index_t ib : mine) {
          const auto piece = slice(part_of(ib), fb.size(ib), blk);
          agg.insert(agg.end(), piece.begin(), piece.end());
        }
        comm_.send_vec(map_.grid_rank(s, gr, 0),
                       tag(s, blk, kTagBelowPartial), agg);
      }
      if (!is_collector) continue;
      for (mpsim::Request& r : breq[blk]) {
        const auto agg = comm_.wait_vec<real_t>(r);
        std::size_t off = 0;
        for (index_t ib : mine) {
          add_into_block(part_of(ib), fb.size(ib), blk, agg.data() + off);
          off += static_cast<std::size_t>(fb.size(ib)) * bw(blk);
        }
      }
      if (parent == kNone) continue;
      std::vector<std::vector<SolveTriple>> outbox(
          static_cast<std::size_t>(pcount));
      for (index_t ib : mine) {
        const auto& total = part_of(ib);
        for (index_t i = 0; i < fb.size(ib); ++i) {
          const auto [lr, dest] = parent_dest(rows[fb.start(ib) - fb.p + i]);
          for (index_t cc = 0; cc < bw(blk); ++cc) {
            const index_t r = col0(blk) + cc;
            const real_t v =
                total[static_cast<std::size_t>(r) * fb.size(ib) + i];
            if (v != 0.0) {
              outbox[dest - pbegin].push_back(SolveTriple{lr, r, v});
            }
          }
        }
      }
      for (int d = 0; d < pcount; ++d) {
        comm_.send_vec(pbegin + d, tag(parent, blk, kTagContrib), outbox[d]);
      }
    }
  }

  void backward_front(index_t s) {
    const FrontBlocking fb = FrontBlocking::make(
        sym_.sn_cols(s), sym_.sn_below(s), map_.block_size);
    const int pr = map_.grid_rows[s];
    const int pc = map_.grid_cols[s];
    const auto [gr, gc] = map_.grid_coords(s, comm_.rank());
    const index_t first = sym_.sn_start[s];
    const auto rows = sym_.below_rows(s);
    const int np = map_.rank_count[s];

    // x at front row `fr` (panel rows from this front's sweep so far, below
    // rows from ancestors — all already in x_known_ by the invariant).
    auto x_at = [&](index_t fr, index_t r) -> real_t {
      const index_t grow = fr < fb.p ? first + fr : rows[fr - fb.p];
      return x_known_[static_cast<std::size_t>(r) * sym_.n + grow];
    };

    for (index_t kb = fb.kp - 1; kb >= 0; --kb) {
      const int kbr = static_cast<int>(kb) % pr;
      const int kbc = static_cast<int>(kb) % pc;
      const index_t bk = fb.size(kb);
      const int diag_rank = map_.grid_rank(s, kbr, kbc);
      const bool is_diag = comm_.rank() == diag_rank;
      const bool is_owner = gc == kbc && fb.grid_row_owns_below(kb, gr, pr);

      // Rows (other than kbr) holding below blocks: their column-kbc ranks
      // send partials to the diagonal owner.
      std::vector<int> partial_rows;
      for (int ri = 0; ri < pr; ++ri) {
        if (ri != kbr && fb.grid_row_owns_below(kb, ri, pr)) {
          partial_rows.push_back(ri);
        }
      }

      std::vector<std::vector<mpsim::Request>> rreq;  // [blk][partial row]
      std::vector<mpsim::Request> xreq;               // [blk]
      if (is_diag) {
        rreq.resize(static_cast<std::size_t>(nb_));
        for (index_t blk = 0; blk < nb_; ++blk) {
          for (int ri : partial_rows) {
            rreq[blk].push_back(comm_.irecv(map_.grid_rank(s, ri, kbc),
                                            tag(s, blk, kTagBwdPartial)));
          }
        }
      } else {
        for (index_t blk = 0; blk < nb_; ++blk) {
          xreq.push_back(comm_.irecv(diag_rank, tag(s, blk, kTagBwdX)));
        }
      }

      // In-panel partials: -Σ L(ib,kb)ᵀ x(ib), per RHS block, block rows
      // ascending; each block ships the moment it is complete.
      std::vector<real_t> partial;  // bk x nrhs_, own contribution
      if (is_owner) {
        partial.assign(static_cast<std::size_t>(bk) * nrhs_, 0.0);
        std::vector<real_t> xi;
        for (index_t blk = 0; blk < nb_; ++blk) {
          const index_t w = bw(blk);
          for (index_t ib = kb + 1; ib < fb.nB; ++ib) {
            if (static_cast<int>(ib) % pr != gr) continue;
            const index_t bi = fb.size(ib);
            xi.resize(static_cast<std::size_t>(bi) * w);
            for (index_t cc = 0; cc < w; ++cc) {
              for (index_t i = 0; i < bi; ++i) {
                xi[static_cast<std::size_t>(cc) * bi + i] =
                    x_at(fb.start(ib) + i, col0(blk) + cc);
              }
            }
            gemm_tn_update(block_view(partial, bk, blk),
                           l_block(s, fb, ib, kb),
                           ConstMatrixView{xi.data(), bi, w, bi});
            comm_.advance_compute(2 * static_cast<count_t>(bi) * bk * w);
          }
          if (!is_diag) {
            comm_.send_vec(diag_rank, tag(s, blk, kTagBwdPartial),
                           slice(partial, bk, blk));
          }
        }
      }

      if (is_diag) {
        const auto it = y_fwd_.find({s, kb});
        PARFACT_DCHECK(it != y_fwd_.end());
        std::vector<real_t> xkb = std::move(it->second);
        y_fwd_.erase(it);
        for (index_t blk = 0; blk < nb_; ++blk) {
          const index_t w = bw(blk);
          real_t* xb = xkb.data() + static_cast<std::size_t>(col0(blk)) * bk;
          if (factor_.is_ldlt()) {
            // x = L⁻ᵀ D⁻¹ (L⁻¹ b): apply the diagonal solve as the
            // backward sweep picks each forward segment up.
            const auto dd = factor_.diag();
            for (index_t cc = 0; cc < w; ++cc) {
              for (index_t i = 0; i < bk; ++i) {
                xb[static_cast<std::size_t>(cc) * bk + i] /=
                    dd[first + fb.start(kb) + i];
              }
            }
          }
          if (is_owner) {
            add_into_block(xkb, bk, blk,
                           partial.data() +
                               static_cast<std::size_t>(col0(blk)) * bk);
          }
          for (mpsim::Request& r : rreq[blk]) {
            add_into_block(xkb, bk, blk, comm_.wait_vec<real_t>(r).data());
          }
          trsm_left_lower_trans(l_block(s, fb, kb, kb),
                                block_view(xkb, bk, blk));
          comm_.advance_compute(static_cast<count_t>(bk) * bk * w);
          // Broadcast this block to every other participant right away:
          // they start their own partials for kb-1 while the remaining
          // blocks of kb are still being solved.
          const std::vector<real_t> xblk = slice(xkb, bk, blk);
          for (int other = map_.rank_begin[s];
               other < map_.rank_begin[s] + np; ++other) {
            if (other == comm_.rank()) continue;
            comm_.send_vec(other, tag(s, blk, kTagBwdX), xblk);
          }
        }
        // Final answer rows: the diagonal owner writes them (disjointly).
        for (index_t r = 0; r < nrhs_; ++r) {
          for (index_t i = 0; i < bk; ++i) {
            x_out_[static_cast<std::size_t>(r) * sym_.n + first +
                   fb.start(kb) + i] =
                xkb[static_cast<std::size_t>(r) * bk + i];
            x_known_[static_cast<std::size_t>(r) * sym_.n + first +
                     fb.start(kb) + i] =
                xkb[static_cast<std::size_t>(r) * bk + i];
          }
        }
      } else {
        // Everyone records the solved segment for later fronts/children.
        for (index_t blk = 0; blk < nb_; ++blk) {
          const auto xblk = comm_.wait_vec<real_t>(xreq[blk]);
          const index_t w = bw(blk);
          for (index_t cc = 0; cc < w; ++cc) {
            for (index_t i = 0; i < bk; ++i) {
              x_known_[static_cast<std::size_t>(col0(blk) + cc) * sym_.n +
                       first + fb.start(kb) + i] =
                  xblk[static_cast<std::size_t>(cc) * bk + i];
            }
          }
        }
      }
    }
  }

  const SymbolicFactor& sym_;
  const FrontMap& map_;
  const CholeskyFactor& factor_;
  const std::vector<real_t>& b_;
  const index_t nrhs_;
  const index_t wb_;       ///< RHS block width
  const index_t nb_;       ///< number of RHS blocks (global, for tags)
  std::vector<real_t>& x_out_;
  mpsim::Comm& comm_;
  std::vector<real_t> x_known_;
  std::map<std::pair<index_t, index_t>, std::vector<real_t>> y_fwd_;
};

}  // namespace

DistSolveResult distributed_solve(const SymbolicFactor& sym,
                                  const FrontMap& map,
                                  const CholeskyFactor& factor,
                                  const std::vector<real_t>& b, index_t nrhs,
                                  const mpsim::MachineModel& model,
                                  const mpsim::FaultPlan& faults,
                                  const DistSolveConfig& config) {
  PARFACT_CHECK(static_cast<count_t>(b.size()) ==
                static_cast<count_t>(sym.n) * nrhs);
  PARFACT_CHECK(config.rhs_block >= 1);
  if (!faults.crashes.empty() || faults.spare_ranks > 0) {
    // Crash recovery is a factorization-phase protocol (buddy checkpoints
    // are taken at front boundaries); the solve sweeps have no resume
    // points, so a crash plan here would be a silent hang waiting to occur.
    throw StatusError(Status::failure(
        StatusCode::kInvalidInput,
        "distributed_solve does not support crash injection or spare "
        "ranks; crash tolerance covers the factorization phase"));
  }
  DistSolveResult result;
  result.x.assign(b.size(), 0.0);
  result.run =
      mpsim::run_spmd(map.n_ranks, model, faults, [&](mpsim::Comm& comm) {
        SolveProgram program(sym, map, factor, b, nrhs, config, result.x,
                             comm);
        program.run();
      });
  result.status = Status::success();
  return result;
}

DistSolveResult distributed_solve_checked(const SymbolicFactor& sym,
                                          const FrontMap& map,
                                          const CholeskyFactor& factor,
                                          const std::vector<real_t>& b,
                                          index_t nrhs,
                                          const mpsim::MachineModel& model,
                                          const mpsim::FaultPlan& faults,
                                          const DistSolveConfig& config) {
  try {
    return distributed_solve(sym, map, factor, b, nrhs, model, faults,
                             config);
  } catch (const StatusError& e) {
    DistSolveResult result;
    result.status = e.status();
    return result;
  } catch (const Error& e) {
    DistSolveResult result;
    result.status = Status::failure(StatusCode::kInternal, e.what());
    return result;
  }
}

}  // namespace parfact
