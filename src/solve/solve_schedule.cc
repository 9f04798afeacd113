#include "solve/solve_schedule.h"

#include "support/error.h"

namespace parfact {

SolveSchedule::SolveSchedule(const SymbolicFactor& symbolic,
                             SolveScheduleOptions opts)
    : sym(&symbolic), rhs_block(opts.rhs_block) {
  PARFACT_CHECK(rhs_block >= 1);
  const index_t ns = symbolic.n_supernodes;

  // --- Tree partition: maximal light subtrees + the top of the tree. ---
  // A supernode is light iff its own per-RHS solve work is below the
  // threshold AND every child is light; children precede parents in the
  // postorder, so one ascending pass settles the flags transitively.
  std::vector<char> light(static_cast<std::size_t>(ns), 1);
  std::vector<char> heavy_child(static_cast<std::size_t>(ns), 0);
  for (index_t s = 0; s < ns; ++s) {
    const count_t p = symbolic.sn_cols(s);
    const count_t b = symbolic.sn_below(s);
    const count_t work = p * p + 2 * p * b;
    light[s] = (work < opts.task_work) && !heavy_child[s];
    const index_t parent = symbolic.sn_parent[s];
    if (parent != kNone && !light[s]) heavy_child[parent] = 1;
  }

  // Task roots: light supernodes whose parent is absent or not light. The
  // postorder makes each subtree the contiguous range [first_descendant(r),
  // r]. Every supernode that is not light belongs to no task.
  for (index_t s = 0; s < ns; ++s) {
    const index_t parent = symbolic.sn_parent[s];
    if (!light[s]) {
      top_sn.push_back(s);
    } else if (parent == kNone || !light[parent]) {
      task_first.push_back(symbolic.first_descendant(s));
      task_root.push_back(s);
    }
  }

  // --- Forward pull plan: segment each supernode's below-row list by the
  // owning ancestor supernode. Ascending source order per owner keeps the
  // per-element addition sequence identical to the serial postorder push.
  in_ptr.assign(static_cast<std::size_t>(ns) + 1, 0);
  for (index_t d = 0; d < ns; ++d) {
    const auto rows = symbolic.below_rows(d);
    for (std::size_t g = 0; g < rows.size();) {
      const index_t owner = symbolic.sn_of[rows[g]];
      std::size_t h = g + 1;
      while (h < rows.size() && symbolic.sn_of[rows[h]] == owner) ++h;
      ++in_ptr[owner + 1];
      g = h;
    }
  }
  for (index_t s = 0; s < ns; ++s) in_ptr[s + 1] += in_ptr[s];
  in.resize(static_cast<std::size_t>(in_ptr[ns]));
  {
    std::vector<index_t> fill(in_ptr.begin(), in_ptr.end() - 1);
    for (index_t d = 0; d < ns; ++d) {
      const auto rows = symbolic.below_rows(d);
      const index_t base = symbolic.sn_row_ptr[d];
      for (std::size_t g = 0; g < rows.size();) {
        const index_t owner = symbolic.sn_of[rows[g]];
        std::size_t h = g + 1;
        while (h < rows.size() && symbolic.sn_of[rows[h]] == owner) ++h;
        in[fill[owner]++] = Incoming{d, base + static_cast<index_t>(g),
                                    base + static_cast<index_t>(h)};
        g = h;
      }
    }
  }
  // Sources arrive ascending per owner because d is the outer loop; the
  // engine relies on that order for bitwise-serial equivalence.

  // --- Backward gather runs: maximal consecutive-row spans. ---
  run_ptr.assign(static_cast<std::size_t>(ns) + 1, 0);
  runs.reserve(static_cast<std::size_t>(symbolic.sn_row_ptr[ns]) / 4 + 8);
  for (index_t s = 0; s < ns; ++s) {
    const auto rows = symbolic.below_rows(s);
    for (std::size_t i = 0; i < rows.size();) {
      std::size_t j = i + 1;
      while (j < rows.size() &&
             rows[j] == rows[j - 1] + 1) {
        ++j;
      }
      runs.push_back(Run{static_cast<index_t>(i), rows[i],
                         static_cast<index_t>(j - i)});
      i = j;
    }
    run_ptr[s + 1] = static_cast<index_t>(runs.size());
  }
}

}  // namespace parfact
