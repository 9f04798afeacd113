#include "perf/dag_sim.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "dist/front_blocks.h"
#include "support/error.h"

namespace parfact {
namespace {

/// Per-rank clock/accounting state shared by both replays.
struct Clocks {
  std::vector<double> t;        // virtual clock
  std::vector<double> compute;  // accumulated compute seconds
  std::vector<double> idle;     // seconds stalled on message arrival
  std::vector<count_t> live;    // live bytes
  std::vector<count_t> peak;
  std::vector<count_t> factor_bytes;
  count_t messages = 0;
  count_t bytes = 0;

  explicit Clocks(int p)
      : t(static_cast<std::size_t>(p), 0.0),
        compute(static_cast<std::size_t>(p), 0.0),
        idle(static_cast<std::size_t>(p), 0.0),
        live(static_cast<std::size_t>(p), 0),
        peak(static_cast<std::size_t>(p), 0),
        factor_bytes(static_cast<std::size_t>(p), 0) {}

  void work(int r, double flops, double rate) {
    t[r] += flops / rate;
    compute[r] += flops / rate;
  }
  void mem(int r, count_t b) {
    live[r] += b;
    peak[r] = std::max(peak[r], live[r]);
  }
  /// Pushes rank r's clock to `floor`, accounting the jump as idle wait.
  void stall_until(int r, double floor) {
    if (floor > t[r]) {
      idle[r] += floor - t[r];
      t[r] = floor;
    }
  }
  /// Point-to-point message: sender pays alpha, receiver clock is pushed to
  /// the arrival time (an immediate, blocking-style stall).
  void msg(int src, int dst, double byte_count,
           const mpsim::MachineModel& m) {
    if (src == dst) return;
    const double arrival = t[src] + m.alpha + byte_count * m.beta;
    t[src] += m.alpha;
    stall_until(dst, arrival);
    ++messages;
    bytes += static_cast<count_t>(byte_count);
  }
  /// As msg(), but the receiver is not stalled now: the arrival lands in
  /// `floor` to be applied at the consumer's next synchronization point —
  /// the lookahead replay's way of overlapping transfer with compute.
  void msg_deferred(int src, double byte_count, const mpsim::MachineModel& m,
                    double* floor) {
    const double arrival = t[src] + m.alpha + byte_count * m.beta;
    t[src] += m.alpha;
    *floor = std::max(*floor, arrival);
    ++messages;
    bytes += static_cast<count_t>(byte_count);
  }
};

count_t front_local_bytes(const FrontBlocking& fb, int pr, int pc, int gr,
                          int gc) {
  count_t total = 0;
  for (index_t jb = gc; jb < fb.nB; jb += pc) {
    for (index_t ib = jb; ib < fb.nB; ++ib) {
      if (static_cast<int>(ib) % pr != gr) continue;
      total += static_cast<count_t>(fb.size(ib)) * fb.size(jb);
    }
  }
  return total * static_cast<count_t>(sizeof(real_t));
}

}  // namespace

PerfResult simulate_factor_time(const SymbolicFactor& sym, const FrontMap& map,
                                const mpsim::MachineModel& model,
                                const DistConfig& config) {
  const int p = map.n_ranks;
  Clocks clk(p);
  const index_t ns = sym.n_supernodes;
  const bool blocking = config.schedule == DistConfig::Schedule::kBlocking;
  const bool taskdag = config.schedule == DistConfig::Schedule::kTaskDag;
  // Wire + staging bytes per extend-add entry: one packed dense value (the
  // index header is implicit; see extend_add.h).
  constexpr double ea_entry_bytes = sizeof(real_t);

  // Per-rank clock stamp at the moment each front finished (its update
  // contributions depart then), plus the update-region byte volume.
  std::vector<std::vector<double>> finish(static_cast<std::size_t>(ns));
  std::vector<count_t> update_entries(static_cast<std::size_t>(ns), 0);

  for (index_t s = 0; s < ns; ++s) {
    const FrontBlocking fb = FrontBlocking::make(
        sym.sn_cols(s), sym.sn_below(s), map.block_size);
    const int pr = map.grid_rows[s];
    const int pc = map.grid_cols[s];
    const int r0 = map.rank_begin[s];
    const int np = map.rank_count[s];

    // Allocation + local memory accounting. Participants past the grid
    // (spectators; see FrontMap::grid_size) own nothing.
    const int used = map.grid_size(s);
    for (int lr = 0; lr < used; ++lr) {
      const int gr = lr % pr;
      const int gc = lr / pr;
      clk.mem(r0 + lr, front_local_bytes(fb, pr, pc, gr, gc));
    }
    // Assembly of the original entries (spread across the grid ranks).
    const count_t a_entries = sym.a.col_ptr[sym.sn_start[s + 1]] -
                              sym.a.col_ptr[sym.sn_start[s]];
    for (int lr = 0; lr < used; ++lr) {
      clk.t[r0 + lr] +=
          static_cast<double>(a_entries) / used * sizeof(real_t) /
          model.mem_rate;
    }

    // Extend-add: every rank of each child sends its share of the child's
    // update entries to every parent rank (matching dist_factor's uniform
    // scheme; shares modeled as uniform). The task-DAG replay does not stall
    // here: each child contributes an arrival *ramp* (base, slope) and the
    // factorization loop below stalls each panel only on the prefix of the
    // contribution stream its columns need — assembly of block column kb is
    // a dependency of POTRF(kb), not a front-wide barrier.
    std::vector<std::pair<double, double>> ea_ramp;  // taskdag: base, slope
    for (index_t c : sym.children(s)) {
      const int cr0 = map.rank_begin[c];
      const int cnp = map.rank_count[c];
      // Every child rank sends one message per parent rank. The all-pairs
      // arrival reduces to a closed form (max over senders), which keeps
      // this O(cnp + np) instead of O(cnp * np) — essential at large P.
      // The replay models the production pairwise-merge (subcube-doubling)
      // extend-add: entries reach their owners through a log-depth exchange
      // in which each rank talks to O(log np) partners, instead of the
      // simple all-to-all reference scheme dist_factor executes. At the
      // small rank counts where both are run (perf_test pins them against
      // each other) the difference is negligible; at large P the all-to-all
      // alpha term would otherwise dominate everything, which no production
      // solver pays.
      int merge_rounds = 1;
      while ((1 << merge_rounds) < np + cnp) ++merge_rounds;
      const bool local = np == 1 && cnp == 1;  // same rank: plain memcpy
      const double share_bytes =
          static_cast<double>(update_entries[c]) * ea_entry_bytes / np;
      double latest_send = 0.0;
      for (int src = 0; src < cnp; ++src) {
        latest_send = std::max(latest_send, finish[c][src]);
        if (!local) clk.t[cr0 + src] += merge_rounds * model.alpha;
        // Child update memory is freed once consumed (owners only).
        if (src < map.grid_size(c)) {
          clk.live[cr0 + src] -= static_cast<count_t>(
              static_cast<double>(update_entries[c]) / map.grid_size(c) *
              ea_entry_bytes);
        }
      }
      if (!local) {
        const double arrival = latest_send + merge_rounds *
                                                 (model.alpha +
                                                  share_bytes * model.beta);
        if (taskdag) {
          ea_ramp.emplace_back(latest_send + merge_rounds * model.alpha,
                               merge_rounds * share_bytes * model.beta);
        }
        for (int dst = 0; dst < np; ++dst) {
          if (!taskdag) clk.stall_until(r0 + dst, arrival);
          clk.t[r0 + dst] += share_bytes * cnp / np / model.mem_rate +
                             share_bytes / model.mem_rate;
        }
        clk.messages += static_cast<count_t>(merge_rounds) * (cnp + np);
        clk.bytes += static_cast<count_t>(static_cast<double>(
            update_entries[c]) * ea_entry_bytes * merge_rounds);
      } else {
        clk.t[r0] += share_bytes / model.mem_rate;
      }
    }

    // Block factorization sweep. Shared pieces: factor_col charges the
    // diagonal factorization + broadcast (an immediate dependency — TRSM
    // consumes it in place) and the TRSMs + panel broadcasts; the panel
    // messages stall receivers immediately (blocking) or land in an
    // arrival-floor vector applied at the next consume point (lookahead).
    auto factor_col = [&](index_t kb, std::vector<double>* floors) {
      const int kbr = static_cast<int>(kb) % pr;
      const int kbc = static_cast<int>(kb) % pc;
      const index_t bk = fb.size(kb);
      const int diag = r0 + kbc * pr + kbr;

      clk.work(diag, static_cast<double>(partial_cholesky_flops(bk, bk)),
               model.flop_rate);
      // Diagonal block down the grid column.
      for (int ri = 0; ri < pr; ++ri) {
        if (ri == kbr || !fb.grid_row_owns_below(kb, ri, pr)) continue;
        clk.msg(diag, r0 + kbc * pr + ri,
                static_cast<double>(bk) * bk * sizeof(real_t), model);
      }
      // TRSMs in the panel column + panel block broadcasts.
      for (index_t ib = kb + 1; ib < fb.nB; ++ib) {
        const int src = r0 + kbc * pr + static_cast<int>(ib) % pr;
        const double bi = fb.size(ib);
        clk.work(src, bi * bk * (bk + 1), model.flop_rate);
        const double blk_bytes = bi * bk * sizeof(real_t);
        // A-side: grid row (ib % pr); B-side: grid column (ib % pc).
        for (int c = 0; c < pc; ++c) {
          const int dst = r0 + c * pr + static_cast<int>(ib) % pr;
          // Only if that rank owns a trailing block needing this (approx:
          // it does whenever the trailing region is non-trivial).
          if (dst == src) continue;
          if (floors) {
            clk.msg_deferred(src, blk_bytes, model, &(*floors)[dst - r0]);
          } else {
            clk.msg(src, dst, blk_bytes, model);
          }
        }
        for (int rrow = 0; rrow < pr; ++rrow) {
          const int dst = r0 + (static_cast<int>(ib) % pc) * pr + rrow;
          if (dst != src && rrow != static_cast<int>(ib) % pr) {
            if (floors) {
              clk.msg_deferred(src, blk_bytes, model, &(*floors)[dst - r0]);
            } else {
              clk.msg(src, dst, blk_bytes, model);
            }
          }
        }
      }
    };
    // Trailing-update work of panel kb restricted to block columns
    // [jb_begin, jb_end): each rank's owned (ib, jb), ib >= jb.
    auto update_cols = [&](index_t kb, index_t jb_begin, index_t jb_end) {
      const index_t bk = fb.size(kb);
      for (index_t jb = jb_begin; jb < jb_end; ++jb) {
        for (index_t ib = jb; ib < fb.nB; ++ib) {
          const int owner = r0 + (static_cast<int>(jb) % pc) * pr +
                            static_cast<int>(ib) % pr;
          clk.work(owner,
                   static_cast<double>(
                       fb.update_flops(ib, jb, bk, /*ldlt=*/false)),
                   model.flop_rate);
        }
      }
    };

    // Fraction of each child's contribution stream that block columns
    // 0..kb depend on, modeled as a linear prefix of the pipelined merge;
    // frac = 1 reproduces the full arrival the other schedules stall on
    // collectively, so the task-DAG floors never exceed that barrier.
    auto ea_floor = [&](double frac) {
      double f = 0.0;
      for (const auto& [base, slope] : ea_ramp) {
        f = std::max(f, base + frac * slope);
      }
      return f;
    };
    // Assembly of block column kb gates POTRF(kb): stall only the grid
    // column that owns the panel, and only on the prefix it needs.
    auto stall_panel_column = [&](index_t kb) {
      const double floor =
          ea_floor(static_cast<double>(kb + 1) / static_cast<double>(fb.nB));
      const int kbc = static_cast<int>(kb) % pc;
      for (int ri = 0; ri < pr; ++ri) {
        clk.stall_until(r0 + kbc * pr + ri, floor);
      }
    };

    if (blocking) {
      for (index_t kb = 0; kb < fb.kp; ++kb) {
        factor_col(kb, nullptr);
        update_cols(kb, kb + 1, fb.nB);
      }
    } else if (fb.kp > 0) {
      // Depth-1 lookahead replay: panel kb+1 is factored and its blocks
      // put in flight right after the urgent update, so the transfer
      // overlaps panel kb's lazy updates; consumers only stall on what has
      // not yet arrived when they reach the next panel. Under kTaskDag the
      // extend-add arrivals are consumed per panel via the ramp floors
      // instead of one collective assembly barrier — matching the
      // shared-memory runtime, where ASM(s) → POTRF(kb) edges are per-front
      // tasks that commute with unrelated panels' updates. kLookahead has
      // an empty ramp (it stalled collectively above), so its floors are 0.
      std::vector<double> cur_arr(static_cast<std::size_t>(used), 0.0);
      std::vector<double> next_arr(static_cast<std::size_t>(used), 0.0);
      stall_panel_column(0);
      factor_col(0, &cur_arr);
      for (index_t kb = 0; kb < fb.kp; ++kb) {
        for (int lr = 0; lr < used; ++lr) {
          clk.stall_until(r0 + lr, cur_arr[static_cast<std::size_t>(lr)]);
          cur_arr[static_cast<std::size_t>(lr)] = 0.0;
        }
        update_cols(kb, kb + 1, std::min<index_t>(kb + 2, fb.nB));
        if (kb + 1 < fb.kp) {
          stall_panel_column(kb + 1);
          factor_col(kb + 1, &next_arr);
        }
        update_cols(kb, kb + 2, fb.nB);
        std::swap(cur_arr, next_arr);
      }
    }
    // Every extend-add byte must have landed before this front's own
    // update contributions depart (the trailing blocks fold them in), so
    // under kTaskDag completion — not assembly — is where the tail of the
    // stream gates. A no-op for the collective schedules (empty ramp).
    const double full = ea_floor(1.0);
    for (int dst = 0; dst < np; ++dst) clk.stall_until(r0 + dst, full);

    // Bookkeeping: panel bytes persist as factor storage; the rest of the
    // front is freed; update entries go on the virtual stack until the
    // parent consumes them.
    update_entries[s] =
        static_cast<count_t>(fb.b) * (fb.b + 1) / 2;
    finish[s].resize(static_cast<std::size_t>(np));
    for (int lr = 0; lr < np; ++lr) {
      if (lr < used) {
        const int gr = lr % pr;
        const int gc = lr / pr;
        const count_t local = front_local_bytes(fb, pr, pc, gr, gc);
        count_t panel = 0;
        for (index_t jb = gc; jb < fb.kp; jb += pc) {
          for (index_t ib = jb; ib < fb.nB; ++ib) {
            if (static_cast<int>(ib) % pr != gr) continue;
            panel += static_cast<count_t>(fb.size(ib)) * fb.size(jb) *
                     static_cast<count_t>(sizeof(real_t));
          }
        }
        clk.factor_bytes[r0 + lr] += panel;
        // Free the front, keep the update entries in wire format until the
        // parent consumes them.
        clk.live[r0 + lr] -= local;
        clk.mem(r0 + lr,
                static_cast<count_t>(static_cast<double>(update_entries[s]) /
                                     used * ea_entry_bytes));
      }
      finish[s][lr] = clk.t[r0 + lr];
    }
  }

  PerfResult result;
  double rank_seconds = 0.0;
  for (int r = 0; r < p; ++r) {
    result.makespan = std::max(result.makespan, clk.t[r]);
    result.compute_total += clk.compute[r];
    result.compute_max = std::max(result.compute_max, clk.compute[r]);
    result.idle_wait_seconds += clk.idle[r];
    rank_seconds += clk.t[r];
    result.peak_rank_bytes =
        std::max(result.peak_rank_bytes, clk.peak[r] + clk.factor_bytes[r]);
    result.factor_bytes_max =
        std::max(result.factor_bytes_max, clk.factor_bytes[r]);
  }
  result.overlap_efficiency =
      rank_seconds > 0.0
          ? std::max(0.0, 1.0 - result.idle_wait_seconds / rank_seconds)
          : 1.0;
  result.total_messages = clk.messages;
  result.total_bytes = clk.bytes;
  return result;
}

PerfResult simulate_solve_time(const SymbolicFactor& sym, const FrontMap& map,
                               const mpsim::MachineModel& model,
                               index_t nrhs) {
  const int p = map.n_ranks;
  Clocks clk(p);
  const index_t ns = sym.n_supernodes;
  const double vec_bytes = static_cast<double>(nrhs) * sizeof(real_t);

  // Forward then backward; both sweeps have the same block structure, so
  // replay one generic sweep function twice (reversed the second time).
  auto sweep = [&](bool forward) {
    for (index_t step = 0; step < ns; ++step) {
      const index_t s = forward ? step : ns - 1 - step;
      const FrontBlocking fb = FrontBlocking::make(
          sym.sn_cols(s), sym.sn_below(s), map.block_size);
      const int pr = map.grid_rows[s];
      const int pc = map.grid_cols[s];
      const int r0 = map.rank_begin[s];
      const int np = map.rank_count[s];

      // Dependency coupling between fronts: forward children feed parents,
      // backward parents feed children — both through the participants'
      // clocks, which the shared-rank model already couples. Contribution
      // routing messages (forward only):
      if (forward) {
        for (index_t c : sym.children(s)) {
          const int cnp = map.rank_count[c];
          const double bytes_per_pair =
              static_cast<double>(sym.sn_below(c)) * vec_bytes * 2.0 / cnp /
              np;
          const count_t remote_pairs = static_cast<count_t>(cnp) * (np - 1);
          double latest_send = 0.0;
          for (int src = 0; src < cnp; ++src) {
            const int sr = map.rank_begin[c] + src;
            latest_send = std::max(latest_send, clk.t[sr]);
            clk.t[sr] += (np - 1) * model.alpha;
          }
          if (remote_pairs > 0) {
            const double arrival =
                latest_send + model.alpha + bytes_per_pair * model.beta;
            for (int dst = 0; dst < np; ++dst) {
              clk.t[r0 + dst] = std::max(clk.t[r0 + dst], arrival);
            }
          }
          clk.messages += remote_pairs;
          clk.bytes += static_cast<count_t>(bytes_per_pair * remote_pairs);
        }
      }

      for (index_t k = 0; k < fb.kp; ++k) {
        const index_t kb = forward ? k : fb.kp - 1 - k;
        const int kbr = static_cast<int>(kb) % pr;
        const int kbc = static_cast<int>(kb) % pc;
        const index_t bk = fb.size(kb);
        const int diag = r0 + kbc * pr + kbr;
        // Partial reductions into the diagonal owner.
        for (int other = 0; other < (forward ? pc : pr); ++other) {
          const int src = forward ? r0 + other * pr + kbr
                                  : r0 + kbc * pr + other;
          if (src != diag) clk.msg(src, diag, bk * vec_bytes, model);
        }
        clk.work(diag, static_cast<double>(bk) * bk * nrhs,
                 model.flop_rate);
        // Solution segment broadcast.
        const int fanout = forward ? pr : np;
        for (int i = 0; i < fanout; ++i) {
          const int dst = forward ? r0 + kbc * pr + i : r0 + i;
          if (dst != diag) clk.msg(diag, dst, bk * vec_bytes, model);
        }
        // L21 block products spread over participants.
        for (index_t ib = kb + 1; ib < fb.nB; ++ib) {
          const int owner = r0 + kbc * pr + static_cast<int>(ib) % pr;
          clk.work(owner, 2.0 * fb.size(ib) * bk * nrhs, model.flop_rate);
        }
      }
    }
  };
  sweep(true);
  sweep(false);

  PerfResult result;
  for (int r = 0; r < p; ++r) {
    result.makespan = std::max(result.makespan, clk.t[r]);
    result.compute_total += clk.compute[r];
    result.compute_max = std::max(result.compute_max, clk.compute[r]);
  }
  result.total_messages = clk.messages;
  result.total_bytes = clk.bytes;
  return result;
}

}  // namespace parfact
