// Tuning knob of the distributed factorization. The schedule is a pure
// communication choice: every schedule produces the bitwise identical
// factor (tests/dist_test.cc asserts it), they differ only in virtual time
// and message count. Extend-add contributions always travel as packed
// dense values in canonical order (8 B/entry); the index "header" is
// implicit — both endpoints derive the same enumeration from the symbolic
// structure (dist/extend_add.h).
#pragma once

namespace parfact {

struct DistConfig {
  /// Block-column schedule of the 2-D block-cyclic front factorization.
  enum class Schedule {
    kBlocking,   ///< no lookahead (panel kb+1 starts after all of panel
                 ///< kb's trailing updates), after one collective
                 ///< extend-add per front
    kLookahead,  ///< depth-1 panel lookahead (panel kb+1 starts right after
                 ///< the update of block column kb+1), after one collective
                 ///< extend-add per front
    kTaskDag,    ///< fan-both: children stream one extend-add message per
                 ///< destination panel, the parent consumes them as they
                 ///< arrive (Comm::wait_any over a preposted pool) and merges
                 ///< each panel in fixed (child, source-rank) order just
                 ///< before its first touch — no collective assembly barrier.
                 ///< Depth-1 panel lookahead as in kLookahead;
                 ///< perf/dag_sim replays the same per-panel floor
                 ///< discipline for large-P studies.
  };

  Schedule schedule = Schedule::kLookahead;
};

}  // namespace parfact
