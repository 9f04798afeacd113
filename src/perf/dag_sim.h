// Block-level discrete-event replay of the distributed factorization and
// solve schedules for large rank counts.
//
// mpsim executes the real numeric program with one thread per rank, which is
// exact but impractical past a few dozen ranks on one host. This module
// replays the *same static schedule* (identical mapping, block partitioning,
// message pattern and flop counts — but no numerics) against an array of
// per-rank virtual clocks, so a 16384-rank strong-scaling sweep costs
// milliseconds. Experiments T2/F1/F4 are generated here; correctness of the
// schedule itself is established by the mpsim runs at small P (tests assert
// the two time models agree within a modest factor).
#pragma once

#include <vector>

#include "dist/config.h"
#include "dist/mapping.h"
#include "mpsim/machine.h"
#include "symbolic/symbolic_factor.h"

namespace parfact {

struct PerfResult {
  double makespan = 0.0;          ///< simulated seconds
  double compute_total = 0.0;     ///< sum of per-rank compute seconds
  double compute_max = 0.0;       ///< busiest rank's compute seconds
  double idle_wait_seconds = 0.0; ///< Σ over ranks of arrival-stall seconds
  double overlap_efficiency = 1.0;///< 1 − idle / Σ rank seconds
  count_t total_messages = 0;
  count_t total_bytes = 0;
  count_t peak_rank_bytes = 0;    ///< max over ranks of peak live bytes
  count_t factor_bytes_max = 0;   ///< max per-rank owned factor bytes

  /// Parallel efficiency vs a perfectly balanced zero-communication run.
  [[nodiscard]] double efficiency(int n_ranks) const {
    const double ideal = compute_total / n_ranks;
    return makespan > 0.0 ? ideal / makespan : 1.0;
  }
};

/// Replays the distributed factorization schedule of `map` under `config`
/// (default: kLookahead, what distributed_factor runs by default). The
/// blocking replay stalls every panel consumer at broadcast time; the
/// pipelined replay defers panel arrivals to the next iteration's consume
/// point (transfer overlaps the previous panel's lazy updates), mirroring
/// dist_factor's block-column loop without and with lookahead. kBlocking
/// and kLookahead stall on one collective extend-add per front; kTaskDag
/// dissolves that barrier into per-panel arrival floors (block column kb
/// stalls only on the prefix of the contribution stream it needs),
/// mirroring the shared-memory runtime's ASM → POTRF task edges.
/// dist_factor executes the same fan-both discipline for real (per-panel
/// extend-add streams consumed through Comm::wait_any); this replay is the
/// large-P stand-in, cross-checked against every executed schedule by
/// tests/perf_test.cc. Extend-add entries cost 8 B each (packed values).
[[nodiscard]] PerfResult simulate_factor_time(
    const SymbolicFactor& sym, const FrontMap& map,
    const mpsim::MachineModel& model, const DistConfig& config = {});

/// Replays the forward+backward solve schedule with `nrhs` right-hand sides.
[[nodiscard]] PerfResult simulate_solve_time(const SymbolicFactor& sym,
                                             const FrontMap& map,
                                             const mpsim::MachineModel& model,
                                             index_t nrhs);

}  // namespace parfact
