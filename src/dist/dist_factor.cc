#include "dist/dist_factor.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <span>
#include <sstream>
#include <vector>

#include "dense/kernels.h"
#include "dist/checkpoint.h"
#include "dist/extend_add.h"
#include "dist/front_blocks.h"
#include "support/error.h"
#include "support/status.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {
namespace {

// Message purposes multiplexed into tags: tag = kTagStride * s + purpose.
// FIFO per (source, tag) plus globally consistent iteration order make every
// channel deterministic (see matching send / irecv loops below).
constexpr int kTagExtendAdd = 0;
constexpr int kTagDiag = 1;
constexpr int kTagPanel = 2;
/// Fan-both per-panel extend-add streams (kTaskDag). The tag is keyed by
/// the *child* supernode (tag = kTagStride * child + kTagEaStream): a child
/// has exactly one parent, so a source rank participating in two children
/// of one parent gets two distinct FIFO channels.
constexpr int kTagEaStream = 3;
constexpr int kTagStride = 8;

/// The locally owned pieces of one front on one rank.
class LocalFront {
 public:
  LocalFront(const FrontBlocking& fb, int pr, int pc, int my_gr, int my_gc)
      : fb_(fb), pr_(pr), pc_(pc), my_gr_(my_gr), my_gc_(my_gc) {
    if (my_gr_ < 0) return;  // spectator: owns nothing
    // Enumerate owned lower blocks (ib >= jb) and lay them out contiguously.
    std::size_t total = 0;
    for (index_t jb = my_gc_; jb < fb.nB; jb += pc_) {
      for (index_t ib = jb; ib < fb.nB; ++ib) {
        if (ib % pr_ != my_gr_) continue;
        offset_[{ib, jb}] = total;
        total += static_cast<std::size_t>(fb.size(ib)) * fb.size(jb);
      }
    }
    data_.assign(total, 0.0);
  }

  [[nodiscard]] bool owns(index_t ib, index_t jb) const {
    return my_gr_ >= 0 && ib % pr_ == my_gr_ && jb % pc_ == my_gc_ &&
           ib >= jb;
  }
  [[nodiscard]] MatrixView block(index_t ib, index_t jb) {
    const auto it = offset_.find({ib, jb});
    PARFACT_DCHECK(it != offset_.end());
    return {data_.data() + it->second, fb_.size(ib), fb_.size(jb),
            fb_.size(ib)};
  }
  [[nodiscard]] count_t bytes() const {
    return static_cast<count_t>(data_.size() * sizeof(real_t));
  }
  /// Adds v at front coordinates (i, j), i >= j; the entry must be owned.
  void add_entry(index_t i, index_t j, real_t v) {
    const index_t ib = fb_.block_of(i);
    const index_t jb = fb_.block_of(j);
    block(ib, jb).at(i - fb_.start(ib), j - fb_.start(jb)) += v;
  }

  const FrontBlocking& blocking() const { return fb_; }

 private:
  FrontBlocking fb_;
  int pr_, pc_, my_gr_, my_gc_;
  std::map<std::pair<index_t, index_t>, std::size_t> offset_;
  std::vector<real_t> data_;
};

/// Owner rank of block (ib, jb) of front s.
int block_owner(const FrontMap& map, index_t s, index_t ib, index_t jb) {
  return map.grid_rank(s, static_cast<int>(ib) % map.grid_rows[s],
                       static_cast<int>(jb) % map.grid_cols[s]);
}

/// One rank's whole factorization program. A fresh rank starts at supernode
/// 0 with a zero perturbation count; a spare resuming a crashed rank starts
/// at the checkpoint header's `next_supernode` with its recorded count —
/// the fronts before that are complete, their panels already deposited in
/// the shared factor, their contribution messages already in the retained
/// logs (mpsim's sequence-number dedup makes any re-sent prefix harmless).
class RankProgram {
 public:
  RankProgram(const SymbolicFactor& sym, const FrontMap& map,
              CholeskyFactor& factor, mpsim::Comm& comm, FactorKind kind,
              std::span<real_t> d, const PivotPolicy& pivot,
              const ResiliencePolicy& resilience, const DistConfig& config,
              index_t start_supernode = 0, count_t base_perturbations = 0)
      : sym_(sym), map_(map), factor_(factor), comm_(comm), kind_(kind),
        d_(d), pivot_(pivot),
        boost_{pivot.threshold, pivot.value, base_perturbations},
        ckpt_(comm, resilience), config_(config),
        start_supernode_(start_supernode) {}

  void run() {
    for (index_t s = start_supernode_; s < sym_.n_supernodes; ++s) {
      if (!map_.participates(s, comm_.rank())) continue;
      process_front(s);
      ckpt_.front_complete(s + 1, boost_.count);
    }
  }

  /// Pivots this rank boosted (each diagonal block is factorized on exactly
  /// one rank, so the per-rank counts sum to the global count).
  [[nodiscard]] count_t perturbations() const { return boost_.count; }

  /// Extend-add wire traffic this rank produced (sender-side count).
  [[nodiscard]] count_t extend_add_bytes() const { return ea_bytes_; }

 private:
  void process_front(index_t s) {
    const FrontBlocking fb =
        FrontBlocking::make(sym_.sn_cols(s), sym_.sn_below(s),
                            map_.block_size);
    const int pr = map_.grid_rows[s];
    const int pc = map_.grid_cols[s];
    // Spectator participants (grid_coords == {-1,-1}) own no blocks: the
    // (gr, gc) guards below then never fire, and LocalFront stays empty.
    const auto [gr, gc] = map_.grid_coords(s, comm_.rank());
    LocalFront front(fb, pr, pc, gr, gc);
    comm_.memory_add(front.bytes());

    // Post the children's contribution receives before touching the matrix
    // entries, so that traffic arrives while this rank assembles: one
    // message per (child, source rank) for the collective extend-add,
    // merged right after the A scatter, or the per-panel stream pool of
    // kTaskDag, merged inside the block-column loop just before each
    // panel's first touch. Either is fully drained by the end of the loop,
    // so the checkpoint boundary after this front sees no outstanding
    // receive.
    const bool streamed = config_.schedule == DistConfig::Schedule::kTaskDag;
    std::vector<mpsim::Request> ea_reqs;
    EaStreams ea;
    if (streamed) {
      ea = build_ea_streams(s, fb);
    } else {
      ea_reqs = post_extend_adds(s);
    }
    assemble_matrix_entries(s, front);
    if (!streamed) receive_extend_adds(s, front, ea_reqs);
    factorize_front(s, front, pr, pc, gr, gc, ea);
    store_panel(s, front);
    send_update(s, front, gr, gc);
    comm_.memory_sub(front.bytes());
  }

  /// Scatter the owned share of A's columns into the front.
  void assemble_matrix_entries(index_t s, LocalFront& front) {
    const index_t first = sym_.sn_start[s];
    const index_t block_end = sym_.sn_start[s + 1];
    const index_t p = sym_.sn_cols(s);
    const auto rows = sym_.below_rows(s);
    const SparseMatrix& a = sym_.a;
    count_t touched = 0;
    for (index_t j = first; j < block_end; ++j) {
      const index_t lj = j - first;
      for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
        const index_t gi = a.row_ind[q];
        index_t li;
        if (gi < block_end) {
          li = gi - first;
        } else {
          const auto it = std::lower_bound(rows.begin(), rows.end(), gi);
          PARFACT_DCHECK(it != rows.end() && *it == gi);
          li = p + static_cast<index_t>(it - rows.begin());
        }
        const index_t ib = front.blocking().block_of(li);
        const index_t jb = front.blocking().block_of(lj);
        if (block_owner(map_, s, ib, jb) != comm_.rank()) continue;
        front.add_entry(li, lj, a.values[q]);
        ++touched;
      }
    }
    comm_.advance_bytes(touched * static_cast<count_t>(sizeof(real_t)));
  }

  /// Posts one receive per (child, source rank) collective extend-add
  /// message, in (child, source-rank) ascending order.
  [[nodiscard]] std::vector<mpsim::Request> post_extend_adds(index_t s) {
    std::vector<mpsim::Request> reqs;
    const int tag = kTagStride * static_cast<int>(s) + kTagExtendAdd;
    for (index_t c : sym_.children(s)) {
      const int begin = map_.rank_begin[c];
      for (int src = begin; src < begin + map_.rank_count[c]; ++src) {
        reqs.push_back(comm_.irecv(src, tag));
      }
    }
    return reqs;
  }

  /// Waits the (possibly empty) extend-add message from every rank of every
  /// child in posting order and merges each right after its wait, so the
  /// floating-point accumulation order is (child, source rank) ascending.
  void receive_extend_adds(index_t s, LocalFront& front,
                           std::vector<mpsim::Request>& ea_reqs) {
    std::size_t next_req = 0;
    for (index_t c : sym_.children(s)) {
      const int begin = map_.rank_begin[c];
      const int end = begin + map_.rank_count[c];
      // The receiver replays the sender's canonical enumeration to
      // reconstruct the packed payload's indices (see extend_add.h).
      const ExtendAddPlan plan = make_extend_add_plan(sym_, map_, c);
      for (int src = begin; src < end; ++src) {
        const auto values = comm_.wait_vec<real_t>(ea_reqs[next_req++]);
        const auto [sgr, sgc] = map_.grid_coords(c, src);
        std::size_t pos = 0;
        for_each_contribution(
            plan, map_, sgr, sgc,
            [&](index_t, index_t, index_t, index_t, index_t row, index_t col,
                int owner) {
              if (owner != comm_.rank()) return;
              PARFACT_CHECK_MSG(pos < values.size(),
                                "packed extend-add payload too short");
              front.add_entry(row, col, values[pos++]);
            });
        PARFACT_CHECK_MSG(pos == values.size(),
                          "packed extend-add payload size mismatch");
        comm_.advance_bytes(static_cast<count_t>(values.size()) *
                            static_cast<count_t>(sizeof(real_t)));
      }
    }
  }

  /// Per-panel in-flight state of the block-column loop. Movable: the heap
  /// buffers (and the l_kk view into diag_buf) survive the move.
  struct PanelState {
    std::vector<real_t> diag_buf;  ///< L_kk (+ diag(D) tail in LDLᵀ mode)
    std::vector<real_t> dk;        ///< diag(D) of this block column (LDLᵀ)
    ConstMatrixView l_kk{};
    mpsim::Request diag_req;
    bool expect_diag = false;
    std::map<index_t, std::vector<real_t>> remote;  ///< fetched panel blocks
    std::vector<std::pair<index_t, mpsim::Request>> panel_reqs;
  };

  /// Posts the receives block column kb will need: the diagonal broadcast
  /// (if this rank sits in kb's grid column below the diagonal owner) and
  /// every remote panel block its trailing updates consume, in ascending
  /// block index — the order the owners send them, so the FIFO tickets
  /// line up with message identity.
  void post_panel_receives(index_t s, const FrontBlocking& fb, int pr,
                           int pc, int gr, int gc, index_t kb,
                           PanelState& st) {
    const int tag_diag = kTagStride * static_cast<int>(s) + kTagDiag;
    const int tag_panel = kTagStride * static_cast<int>(s) + kTagPanel;
    const int kbc = static_cast<int>(kb) % pc;
    const int kbr = static_cast<int>(kb) % pr;
    if (gc == kbc && gr != kbr && fb.grid_row_owns_below(kb, gr, pr)) {
      st.diag_req = comm_.irecv(map_.grid_rank(s, kbr, kbc), tag_diag);
      st.expect_diag = true;
    }
    std::vector<index_t> needed;
    for (index_t jb = kb + 1; jb < fb.nB; ++jb) {
      if (static_cast<int>(jb) % pc != gc) continue;
      for (index_t ib = jb; ib < fb.nB; ++ib) {
        if (static_cast<int>(ib) % pr != gr) continue;
        needed.push_back(ib);
        needed.push_back(jb);
      }
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    for (index_t x : needed) {
      const int owner = block_owner(map_, s, x, kb);
      if (owner == comm_.rank()) continue;
      st.panel_reqs.emplace_back(x, comm_.irecv(owner, tag_panel));
    }
  }

  /// Factors block column kb's diagonal at its owner and sends it down the
  /// grid column (in LDLᵀ mode with diag(D) appended), then TRSMs this
  /// rank's panel blocks and sends each along its grid row (A-side
  /// consumers) and grid column (B-side consumers).
  void factor_column(index_t s, LocalFront& front, int pr, int pc, int gr,
                     int gc, index_t kb, PanelState& st) {
    const FrontBlocking& fb = front.blocking();
    const int tag_diag = kTagStride * static_cast<int>(s) + kTagDiag;
    const int tag_panel = kTagStride * static_cast<int>(s) + kTagPanel;
    const int kbc = static_cast<int>(kb) % pc;
    const int kbr = static_cast<int>(kb) % pr;
    const index_t bk = fb.size(kb);
    const bool ldlt = kind_ == FactorKind::kLdlt;

    if (gr == kbr && gc == kbc) {
      MatrixView dblk = front.block(kb, kb);
      const index_t col0 = sym_.sn_start[s] + fb.start(kb);
      PivotBoost* boost = pivot_.boost ? &boost_ : nullptr;
      index_t info;
      if (ldlt) {
        info = ldlt_lower(dblk,
                          d_.subspan(static_cast<std::size_t>(col0),
                                     static_cast<std::size_t>(bk)),
                          boost);
        st.dk.assign(d_.begin() + col0, d_.begin() + col0 + bk);
      } else {
        info = potrf_lower(dblk, boost);
      }
      if (info != kNone) {
        std::ostringstream os;
        os << "bad pivot at column " << col0 + info
           << " (postordered), supernode " << s << " (front order "
           << sym_.front_order(s) << ", " << sym_.sn_cols(s)
           << " columns), panel block " << kb << " on rank "
           << comm_.rank();
        throw StatusError(
            Status::failure(StatusCode::kBreakdown, os.str(), s));
      }
      comm_.advance_compute(partial_cholesky_flops(bk, bk));
      st.diag_buf.assign(dblk.data,
                         dblk.data + static_cast<std::size_t>(bk) * bk);
      if (ldlt) {
        st.diag_buf.insert(st.diag_buf.end(), st.dk.begin(), st.dk.end());
      }
      for (int ri = 0; ri < pr; ++ri) {
        if (ri == gr) continue;
        if (!fb.grid_row_owns_below(kb, ri, pr)) continue;
        comm_.send_vec(map_.grid_rank(s, ri, kbc), tag_diag, st.diag_buf);
      }
      st.l_kk = ConstMatrixView{st.diag_buf.data(), bk, bk, bk};
    } else if (st.expect_diag) {
      st.diag_buf = comm_.wait_vec<real_t>(st.diag_req);
      st.l_kk = ConstMatrixView{st.diag_buf.data(), bk, bk, bk};
      if (ldlt) {
        st.dk.assign(st.diag_buf.begin() + static_cast<std::size_t>(bk) * bk,
                     st.diag_buf.end());
      }
    }

    if (gc == kbc) {
      for (index_t ib = kb + 1; ib < fb.nB; ++ib) {
        if (static_cast<int>(ib) % pr != gr) continue;
        MatrixView blk = front.block(ib, kb);
        trsm_right_lower_trans(st.l_kk, blk);
        if (ldlt) {
          // blk now holds M = A L⁻ᵀ = L·D; rescale to the stored L.
          for (index_t k = 0; k < bk; ++k) {
            const real_t inv = 1.0 / st.dk[k];
            real_t* col = &blk.at(0, k);
            for (index_t i = 0; i < blk.rows; ++i) col[i] *= inv;
          }
        }
        comm_.advance_compute(static_cast<count_t>(blk.rows) * bk *
                              (bk + 1));
        std::vector<int> dests;
        // A-side: ranks in grid row (ib % pr) owning (ib, jb), kb<jb<=ib.
        for (int c = 0; c < pc; ++c) {
          if (row_needs_block(kb, ib, c, pc)) {
            dests.push_back(
                map_.grid_rank(s, static_cast<int>(ib) % pr, c));
          }
        }
        // B-side: ranks in grid column (ib % pc) owning (ib2, ib),
        // ib <= ib2 < nB.
        for (int rrow = 0; rrow < pr; ++rrow) {
          if (col_needs_block(fb, ib, rrow, pr)) {
            dests.push_back(
                map_.grid_rank(s, rrow, static_cast<int>(ib) % pc));
          }
        }
        std::sort(dests.begin(), dests.end());
        dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
        std::vector<real_t> payload(
            blk.data, blk.data + static_cast<std::size_t>(blk.rows) * bk);
        if (ldlt) payload.insert(payload.end(), st.dk.begin(), st.dk.end());
        for (int dst : dests) {
          if (dst == comm_.rank()) continue;
          comm_.send_vec(dst, tag_panel, payload);
        }
      }
    }
  }

  /// Waits the preposted remote panel receives of block column kb (in
  /// posting order — the sender's order) into st.remote.
  void collect_panels(const FrontBlocking& fb, index_t kb, PanelState& st) {
    const index_t bk = fb.size(kb);
    const bool ldlt = kind_ == FactorKind::kLdlt;
    for (auto& [x, req] : st.panel_reqs) {
      std::vector<real_t> payload = comm_.wait_vec<real_t>(req);
      if (ldlt) {
        if (st.dk.empty()) {
          st.dk.assign(payload.end() - bk, payload.end());
        }
        payload.resize(payload.size() - bk);
      }
      st.remote[x] = std::move(payload);
    }
    st.panel_reqs.clear();
  }

  /// Applies panel kb's trailing update to this rank's blocks in block
  /// column jb: C(ib, jb) -= L(ib, kb) D L(jb, kb)ᵀ (D = I for Cholesky).
  void update_block_column(index_t s, LocalFront& front, int pr, int pc,
                           int gr, int gc, index_t kb, const PanelState& st,
                           index_t jb) {
    if (static_cast<int>(jb) % pc != gc) return;
    const FrontBlocking& fb = front.blocking();
    // First ib ≥ jb in this rank's grid row; if none, block (jb, kb) was
    // never requested and must not be touched.
    const index_t ib0 = jb + (gr - static_cast<int>(jb) % pr + pr) % pr;
    if (ib0 >= fb.nB) return;
    const index_t bk = fb.size(kb);
    const bool ldlt = kind_ == FactorKind::kLdlt;
    auto panel_block = [&](index_t x) -> ConstMatrixView {
      if (block_owner(map_, s, x, kb) == comm_.rank()) {
        return front.block(x, kb);
      }
      const auto it = st.remote.find(x);
      PARFACT_DCHECK(it != st.remote.end());
      return {it->second.data(), fb.size(x), bk, fb.size(x)};
    };
    // In LDLᵀ mode the B-side operand L(jb, kb) is rescaled by D once for
    // the whole block column.
    ConstMatrixView bj = panel_block(jb);
    std::vector<real_t> scaled;
    if (ldlt) {
      scaled.resize(static_cast<std::size_t>(bj.rows) * bk);
      for (index_t k = 0; k < bk; ++k) {
        const real_t dv = st.dk[k];
        for (index_t i = 0; i < bj.rows; ++i) {
          scaled[static_cast<std::size_t>(k) * bj.rows + i] = bj.at(i, k) * dv;
        }
      }
      bj = {scaled.data(), bj.rows, bk, bj.rows};
    }
    for (index_t ib = ib0; ib < fb.nB; ++ib) {
      if (static_cast<int>(ib) % pr != gr) continue;
      MatrixView c = front.block(ib, jb);
      if (ib == jb && !ldlt) {
        syrk_lower_update(c, panel_block(ib));
      } else {
        gemm_nt_update(c, panel_block(ib), bj);
      }
      comm_.advance_compute(fb.update_flops(ib, jb, bk, ldlt));
    }
  }

  /// Per-front fan-both extend-add pool: one preposted irecv per non-empty
  /// (destination panel, child, source rank) stream message. Slots (and
  /// requests) are ordered (panel, child, source) ascending — need order,
  /// so wait_any's blocking case always targets the next message a merge
  /// requires — and per (source, tag) channel that order is panel-ascending,
  /// matching the sender's panel-ascending send loop, so FIFO tickets line
  /// up with message identity.
  /// A default-constructed pool is empty: every panel is already merged.
  struct EaStreams {
    struct Slot {
      index_t panel = 0;    ///< destination parent block column
      index_t child = 0;    ///< sending child supernode (tag key)
      int src = -1;         ///< sending child rank
      /// This rank's (row, col) targets in canonical order restricted to
      /// this slot — the packed payload's implicit index header.
      std::vector<std::pair<index_t, index_t>> targets;
      std::vector<real_t> values;  ///< packed payload, once arrived
    };
    std::vector<Slot> slots;
    std::vector<mpsim::Request> reqs;  ///< parallel to slots (posting order)
    /// Slots of panel p occupy [panel_begin[p], panel_begin[p + 1]).
    std::vector<std::size_t> panel_begin;
    index_t next_panel = 0;    ///< first panel not yet merged
    std::size_t drained = 0;   ///< every request below this index is done
  };

  /// Enumerates every child cell once, bucketing this rank's owned targets
  /// by destination panel, then posts the pool in (panel, child, source)
  /// order. Both endpoints derive each stream message's content — and which
  /// are empty and never sent — from the symbolic structure alone.
  [[nodiscard]] EaStreams build_ea_streams(index_t s,
                                           const FrontBlocking& fb) {
    EaStreams ea;
    ea.panel_begin.assign(static_cast<std::size_t>(fb.nB) + 1,
                          0);
    const auto children = sym_.children(s);
    if (children.empty()) return ea;
    // per_cell[child_pos][src - begin][panel] -> target list for this rank.
    std::vector<std::vector<std::vector<
        std::vector<std::pair<index_t, index_t>>>>> per_cell(
        children.size());
    for (std::size_t cp = 0; cp < children.size(); ++cp) {
      const index_t c = children[cp];
      const ExtendAddPlan plan = make_extend_add_plan(sym_, map_, c);
      const int begin = map_.rank_begin[c];
      const int count = map_.rank_count[c];
      per_cell[cp].resize(static_cast<std::size_t>(count));
      for (int src = begin; src < begin + count; ++src) {
        auto& buckets = per_cell[cp][static_cast<std::size_t>(src - begin)];
        buckets.resize(static_cast<std::size_t>(fb.nB));
        const auto [sgr, sgc] = map_.grid_coords(c, src);
        for_each_panel_contribution(
            plan, map_, sgr, sgc,
            [&](index_t, index_t, index_t, index_t, index_t row,
                index_t col, int owner, index_t panel) {
              if (owner != comm_.rank()) return;
              buckets[static_cast<std::size_t>(panel)].emplace_back(row,
                                                                    col);
            });
      }
    }
    for (index_t p = 0; p < fb.nB; ++p) {
      ea.panel_begin[static_cast<std::size_t>(p)] = ea.slots.size();
      for (std::size_t cp = 0; cp < children.size(); ++cp) {
        const index_t c = children[cp];
        const int begin = map_.rank_begin[c];
        const int end = begin + map_.rank_count[c];
        for (int src = begin; src < end; ++src) {
          auto& targets = per_cell[cp][static_cast<std::size_t>(
              src - begin)][static_cast<std::size_t>(p)];
          if (targets.empty()) continue;
          EaStreams::Slot slot;
          slot.panel = p;
          slot.child = c;
          slot.src = src;
          slot.targets = std::move(targets);
          ea.slots.push_back(std::move(slot));
        }
      }
    }
    ea.panel_begin[static_cast<std::size_t>(fb.nB)] = ea.slots.size();
    ea.reqs.reserve(ea.slots.size());
    for (const EaStreams::Slot& slot : ea.slots) {
      ea.reqs.push_back(comm_.irecv(
          slot.src, kTagStride * static_cast<int>(slot.child) + kTagEaStream));
    }
    return ea;
  }

  /// Drains the pool through panel jb — buffering whatever else wait_any's
  /// fast path happens to harvest — then merges every not-yet-merged panel
  /// ≤ jb into the front, each in fixed (child, source-rank) slot order
  /// regardless of arrival order. Per scalar the addition order is exactly
  /// the collective extend-add's: at most one entry per (child, source)
  /// message (extend_add.h), applied children-ascending then
  /// source-ascending.
  void ensure_assembled(index_t jb, LocalFront& front, EaStreams& ea) {
    if (ea.slots.empty() || ea.next_panel > jb) return;
    const std::size_t end =
        ea.panel_begin[static_cast<std::size_t>(jb) + 1];
    for (;;) {
      while (ea.drained < end && ea.reqs[ea.drained].done()) ++ea.drained;
      if (ea.drained >= end) break;
      // Waiting on a done request returns its buffered payload at once.
      const std::size_t idx = comm_.wait_any(ea.reqs);
      ea.slots[idx].values = comm_.wait_vec<real_t>(ea.reqs[idx]);
    }
    for (; ea.next_panel <= jb; ++ea.next_panel) {
      const std::size_t p0 =
          ea.panel_begin[static_cast<std::size_t>(ea.next_panel)];
      const std::size_t p1 =
          ea.panel_begin[static_cast<std::size_t>(ea.next_panel) + 1];
      for (std::size_t i = p0; i < p1; ++i) {
        EaStreams::Slot& slot = ea.slots[i];
        PARFACT_CHECK_MSG(slot.values.size() == slot.targets.size(),
                          "fan-both packed stream size mismatch");
        for (std::size_t k = 0; k < slot.targets.size(); ++k) {
          front.add_entry(slot.targets[k].first, slot.targets[k].second,
                          slot.values[k]);
        }
        comm_.advance_bytes(static_cast<count_t>(slot.values.size()) *
                            static_cast<count_t>(sizeof(real_t)));
        slot.values = {};
      }
    }
  }

  /// The right-looking block-column loop of every schedule. Per panel kb:
  /// post its receives, factor_column, collect_panels, then apply kb's
  /// trailing update one block column at a time in ascending order. The
  /// schedules differ only in when panel kb+1 starts. kBlocking starts it
  /// after all of panel kb's updates. kLookahead and kTaskDag start it right
  /// after the *urgent* update of block column kb+1 (the one
  /// factor_column(kb+1) reads), so its blocks are in flight while the
  /// *lazy* rest (columns ≥ kb+2) is updated: depth-1 panel lookahead.
  ///
  /// Under kTaskDag the collective extend-add barrier is dissolved into
  /// per-panel arrival floors: each destination panel of `ea` is merged
  /// just before its first touch — panel 0 before factor_column(0), every
  /// other column before its first update — so factoring starts while
  /// children are still streaming their later panels. The collective
  /// schedules pass an empty pool (their extend-add has merged everything),
  /// which makes every ensure_assembled a no-op.
  ///
  /// Per scalar the addition order is the same under every schedule
  /// (A scatter, then child contributions in fixed (child, source-rank)
  /// order, then panel updates ascending kb with identical operands), so
  /// the factor is bitwise identical.
  void factorize_front(index_t s, LocalFront& front, int pr, int pc, int gr,
                       int gc, EaStreams& ea) {
    const FrontBlocking& fb = front.blocking();
    const bool lookahead =
        config_.schedule != DistConfig::Schedule::kBlocking;
    if (fb.kp > 0) {
      ensure_assembled(0, front, ea);
      PanelState cur;
      post_panel_receives(s, fb, pr, pc, gr, gc, 0, cur);
      factor_column(s, front, pr, pc, gr, gc, 0, cur);
      for (index_t kb = 0; kb < fb.kp; ++kb) {
        collect_panels(fb, kb, cur);
        const index_t lazy_begin =
            lookahead ? std::min<index_t>(kb + 2, fb.nB) : fb.nB;
        for (index_t jb = kb + 1; jb < lazy_begin; ++jb) {
          ensure_assembled(jb, front, ea);
          update_block_column(s, front, pr, pc, gr, gc, kb, cur, jb);
        }
        PanelState next;
        if (kb + 1 < fb.kp) {
          post_panel_receives(s, fb, pr, pc, gr, gc, kb + 1, next);
          factor_column(s, front, pr, pc, gr, gc, kb + 1, next);
        }
        for (index_t jb = lazy_begin; jb < fb.nB; ++jb) {
          ensure_assembled(jb, front, ea);
          update_block_column(s, front, pr, pc, gr, gc, kb, cur, jb);
        }
        cur = std::move(next);
      }
    }
    // Full drain (mostly a no-op — the sweeps above ensured every panel a
    // trailing update touches): the checkpoint boundary after this front
    // requires every posted receive to be complete, including streams into
    // panels no update ever touched.
    ensure_assembled(fb.nB - 1, front, ea);
  }

  /// True iff rank at grid column c owns a block (ib, jb), kb < jb <= ib.
  static bool row_needs_block(index_t kb, index_t ib, int c, int pc) {
    for (index_t jb = kb + 1; jb <= ib; ++jb) {
      if (static_cast<int>(jb) % pc == c) return true;
    }
    return false;
  }
  /// True iff grid row `rrow` owns a block (ib2, ib) with ib <= ib2 < nB.
  static bool col_needs_block(const FrontBlocking& fb, index_t ib, int rrow,
                              int pr) {
    for (index_t ib2 = ib; ib2 < fb.nB; ++ib2) {
      if (static_cast<int>(ib2) % pr == rrow) return true;
    }
    return false;
  }

  /// Copy owned panel blocks into the shared factor (disjoint writes).
  void store_panel(index_t s, LocalFront& front) {
    const FrontBlocking& fb = front.blocking();
    MatrixView panel = factor_.panel(s);
    count_t bytes = 0;
    for (index_t jb = 0; jb < fb.kp; ++jb) {
      for (index_t ib = jb; ib < fb.nB; ++ib) {
        if (!front.owns(ib, jb)) continue;
        const MatrixView blk = front.block(ib, jb);
        const index_t r0 = fb.start(ib);
        const index_t c0 = fb.start(jb);
        for (index_t j = 0; j < blk.cols; ++j) {
          const index_t i_begin = (ib == jb) ? j : 0;
          for (index_t i = i_begin; i < blk.rows; ++i) {
            panel.at(r0 + i, c0 + j) = blk.at(i, j);
          }
        }
        const count_t blk_bytes = static_cast<count_t>(blk.rows) * blk.cols *
                                  static_cast<count_t>(sizeof(real_t));
        ckpt_.note_panel(blk.data, static_cast<std::size_t>(blk_bytes));
        bytes += blk_bytes;
      }
    }
    // Owned factor panels persist for the solve phase.
    comm_.memory_add(bytes);
    comm_.advance_bytes(bytes);
  }

  /// Packs the owned update-region entries, in the canonical enumeration of
  /// extend_add.h, into one bucket per destination parent rank and sends
  /// each as a (possibly empty) message of values alone; the receiver
  /// replays the enumeration to recover the indices. Under kTaskDag the
  /// buckets are per (parent rank, parent panel) instead, sent
  /// panel-ascending (destination-inner) so each channel carries its
  /// stream messages in the order the parent posts them, and empty buckets
  /// are skipped: both endpoints know from the symbolic structure alone
  /// that no message exists for them.
  void send_update(index_t s, LocalFront& front, int gr, int gc) {
    const index_t parent = sym_.sn_parent[s];
    if (parent == kNone) return;
    const ExtendAddPlan plan = make_extend_add_plan(sym_, map_, s);
    const int pbegin = map_.rank_begin[parent];
    const auto pcount = static_cast<std::size_t>(map_.rank_count[parent]);
    const bool streamed = config_.schedule == DistConfig::Schedule::kTaskDag;
    const int tag = streamed
                        ? kTagStride * static_cast<int>(s) + kTagEaStream
                        : kTagStride * static_cast<int>(parent) + kTagExtendAdd;
    const auto n_panels =
        static_cast<std::size_t>(streamed ? plan.pfb.nB : 1);

    // Cache the current block view: the enumeration is contiguous per
    // (ib, jb), so one lookup per block suffices.
    index_t cur_ib = kNone, cur_jb = kNone;
    MatrixView blk{};
    const auto block_at = [&](index_t ib, index_t jb) -> const MatrixView& {
      if (ib != cur_ib || jb != cur_jb) {
        blk = front.block(ib, jb);
        cur_ib = ib;
        cur_jb = jb;
      }
      return blk;
    };

    // outbox[panel * pcount + (owner - pbegin)]
    std::vector<std::vector<real_t>> outbox(n_panels * pcount);
    for_each_panel_contribution(
        plan, map_, gr, gc,
        [&](index_t ib, index_t jb, index_t i, index_t j, index_t, index_t,
            int owner, index_t panel) {
          const std::size_t p = streamed ? static_cast<std::size_t>(panel) : 0;
          outbox[p * pcount + static_cast<std::size_t>(owner - pbegin)]
              .push_back(block_at(ib, jb).at(i, j));
        });
    for (std::size_t b = 0; b < outbox.size(); ++b) {
      const std::vector<real_t>& msg = outbox[b];
      if (streamed && msg.empty()) continue;
      const count_t bytes = static_cast<count_t>(msg.size()) *
                            static_cast<count_t>(sizeof(real_t));
      ckpt_.note_contribution(msg.data(), static_cast<std::size_t>(bytes));
      comm_.send_vec(pbegin + static_cast<int>(b % pcount), tag, msg);
      ea_bytes_ += bytes;
    }
  }

  const SymbolicFactor& sym_;
  const FrontMap& map_;
  CholeskyFactor& factor_;
  mpsim::Comm& comm_;
  FactorKind kind_;
  std::span<real_t> d_;  ///< shared diag(D) output in LDLᵀ mode
  PivotPolicy pivot_;
  PivotBoost boost_;  ///< per-rank static-pivoting counter
  BuddyCheckpointer ckpt_;
  DistConfig config_;
  index_t start_supernode_;  ///< first front to execute (resume point)
  count_t ea_bytes_ = 0;  ///< extend-add wire bytes sent by this rank
};

}  // namespace

DistFactorResult distributed_factor(const SymbolicFactor& sym,
                                    const FrontMap& map,
                                    const mpsim::MachineModel& model,
                                    FactorKind kind, PivotPolicy pivot,
                                    const mpsim::FaultPlan& faults,
                                    const ResiliencePolicy& resilience,
                                    const DistConfig& config) {
  validate_resilience_policy(resilience);
  pivot = resolve_pivot_policy(pivot, sym.a);
  DistFactorResult result(sym);
  std::span<real_t> d;
  if (kind == FactorKind::kLdlt) d = result.factor.allocate_diag();
  std::atomic<count_t> perturbations{0};
  std::atomic<count_t> ea_bytes{0};
  result.run =
      mpsim::run_spmd(map.n_ranks, model, faults, [&](mpsim::Comm& comm) {
        index_t start_supernode = 0;
        count_t base_perturbations = 0;
        if (comm.is_spare()) {
          // Stand by until our designated crash fires (or the run ends).
          // Adoption rebinds this Comm to the dead rank and restores the
          // communication-protocol snapshot; the checkpoint header tells
          // us where to resume. A crashed incarnation never reaches the
          // perturbation accumulation below, so this replacement reports
          // the rank's full count (checkpoint base + replayed fronts).
          const mpsim::Takeover takeover = comm.await_failure();
          if (takeover.rank < 0) return;  // clean run; spare unused
          const CheckpointImage image = decode_checkpoint(takeover.checkpoint);
          start_supernode = image.next_supernode;
          base_perturbations = image.perturbations;
        }
        RankProgram program(sym, map, result.factor, comm, kind, d, pivot,
                            resilience, config, start_supernode,
                            base_perturbations);
        program.run();
        perturbations.fetch_add(program.perturbations(),
                                std::memory_order_relaxed);
        ea_bytes.fetch_add(program.extend_add_bytes(),
                           std::memory_order_relaxed);
      });
  result.status =
      Status::success(perturbations.load(std::memory_order_relaxed));
  result.extend_add_bytes = ea_bytes.load(std::memory_order_relaxed);
  return result;
}

DistFactorResult distributed_factor_checked(const SymbolicFactor& sym,
                                            const FrontMap& map,
                                            const mpsim::MachineModel& model,
                                            FactorKind kind,
                                            PivotPolicy pivot,
                                            const mpsim::FaultPlan& faults,
                                            const ResiliencePolicy& resilience,
                                            const DistConfig& config) {
  try {
    return distributed_factor(sym, map, model, kind, pivot, faults,
                              resilience, config);
  } catch (const StatusError& e) {
    DistFactorResult result(sym);
    result.status = e.status();
    return result;
  } catch (const Error& e) {
    DistFactorResult result(sym);
    result.status = Status::failure(StatusCode::kInternal, e.what());
    return result;
  }
}

}  // namespace parfact
