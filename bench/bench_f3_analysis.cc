// F3 — Analysis phase: ordering quality and cost. Compares nested
// dissection (the parallel solver's ordering) against minimum degree, RCM
// and the natural ordering: factor nonzeros, factorization flops, and the
// wall time of each half of Solver::analyze — the ordering (graph build +
// ordering call, as analyze makes them; median of kOrderRuns runs, with
// their min–max) and the symbolic analysis of the matrix permuted by that
// ordering. Each row also prints the fnv1a digest of the permutation, the
// record that an ordering change shows up in. Minimum degree (exact
// external degree) is run up to a size cap; larger entries print '-'.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "api/solver.h"
#include "bench/common.h"
#include "graph/ordering.h"
#include "sparse/ops.h"
#include "support/checksum.h"
#include "support/timer.h"

using namespace parfact;

namespace {

constexpr int kOrderRuns = 5;

struct Row {
  count_t nnz_l = 0;
  count_t flops = 0;
  double order_median = 0.0;  ///< seconds, over kOrderRuns runs
  double order_min = 0.0;
  double order_max = 0.0;
  double symbolic_seconds = 0.0;
  std::uint64_t fingerprint = 0;
};

std::vector<index_t> order(const SparseMatrix& a,
                           SolverOptions::Ordering ord) {
  switch (ord) {
    case SolverOptions::Ordering::kNestedDissection:
      return nested_dissection(graph_from_pattern(a));
    case SolverOptions::Ordering::kMinimumDegree:
      return minimum_degree(graph_from_pattern(a));
    case SolverOptions::Ordering::kRcm:
      return rcm(graph_from_pattern(a));
    case SolverOptions::Ordering::kNatural:
      break;
  }
  std::vector<index_t> perm(static_cast<std::size_t>(a.rows));
  std::iota(perm.begin(), perm.end(), 0);
  return perm;
}

Row run(const SparseMatrix& a, SolverOptions::Ordering ord) {
  Row row;
  std::vector<index_t> perm;
  std::vector<double> seconds;
  for (int r = 0; r < kOrderRuns; ++r) {
    WallTimer t;
    perm = order(a, ord);
    seconds.push_back(t.seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  row.order_median = seconds[seconds.size() / 2];
  row.order_min = seconds.front();
  row.order_max = seconds.back();
  row.fingerprint = fnv1a(perm.data(), perm.size() * sizeof(index_t));
  // Symbolic analysis alone: the natural ordering of the permuted matrix,
  // permuted as analyze permutes it.
  const SparseMatrix permuted = permute_lower(a, perm);
  SolverOptions opts;
  opts.ordering = SolverOptions::Ordering::kNatural;
  Solver solver(opts);
  WallTimer t;
  solver.analyze(permuted);
  row.symbolic_seconds = t.seconds();
  row.nnz_l = solver.report().nnz_factor;
  row.flops = solver.report().factor_flops;
  return row;
}

}  // namespace

int main() {
  bench::heading("F3: ordering quality (fill and flops) and analysis cost");
  constexpr index_t kMinDegCap = 40000;
  const auto problems = bench::suite();
  std::printf("# order: median of %d runs (min-max)\n", kOrderRuns);
  std::printf("%-12s %-8s %12s %10s %9s %19s %9s  %-16s\n", "matrix",
              "ordering", "nnz(L)", "GFLOP", "order", "(min-max)", "symbolic",
              "fingerprint");
  for (const auto& prob : problems) {
    struct {
      const char* name;
      SolverOptions::Ordering ord;
    } cases[] = {
        {"nd", SolverOptions::Ordering::kNestedDissection},
        {"mindeg", SolverOptions::Ordering::kMinimumDegree},
        {"rcm", SolverOptions::Ordering::kRcm},
        {"natural", SolverOptions::Ordering::kNatural},
    };
    for (const auto& c : cases) {
      if (c.ord == SolverOptions::Ordering::kMinimumDegree &&
          prob.lower.rows > kMinDegCap) {
        std::printf("%-12s %-8s %12s %10s %9s %19s %9s  %-16s\n",
                    prob.name.c_str(), c.name, "-", "-", "-", "-", "-", "-");
        continue;
      }
      const Row r = run(prob.lower, c.ord);
      std::printf(
          "%-12s %-8s %12lld %10.2f %8.3fs (%7.3f-%7.3fs) %8.2fs  %016llx\n",
          prob.name.c_str(), c.name, static_cast<long long>(r.nnz_l),
          static_cast<double>(r.flops) / 1e9, r.order_median, r.order_min,
          r.order_max, r.symbolic_seconds,
          static_cast<unsigned long long>(r.fingerprint));
    }
  }
  std::printf(
      "# expected shape: nd and mindeg close on 2-D problems; nd clearly "
      "ahead on large 3-D problems; rcm/natural far behind.\n");
  return 0;
}
