#include "solve/condest.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "solve/solve.h"
#include "sparse/ops.h"
#include "support/error.h"

namespace parfact {
namespace {

real_t norm1(const std::vector<real_t>& v) {
  real_t s = 0.0;
  for (real_t x : v) s += std::abs(x);
  return s;
}

}  // namespace

real_t estimate_inverse_norm1(index_t n, const SolveFn& solve) {
  PARFACT_CHECK(n > 0);
  std::vector<real_t> x(static_cast<std::size_t>(n),
                        1.0 / static_cast<real_t>(n));
  std::vector<real_t> z;
  real_t estimate = 0.0;
  index_t last_j = kNone;

  for (int iter = 0; iter < 5; ++iter) {
    // y = A⁻¹ x.
    solve(MatrixView{x.data(), n, 1, n});
    estimate = std::max(estimate, norm1(x));
    // xi = sign(y); z = A⁻ᵀ xi = A⁻¹ xi (A symmetric).
    z.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      z[i] = x[i] >= 0.0 ? 1.0 : -1.0;
    }
    solve(MatrixView{z.data(), n, 1, n});
    // Pick the coordinate with the largest |z| as the next probe.
    index_t j = 0;
    for (index_t i = 1; i < n; ++i) {
      if (std::abs(z[i]) > std::abs(z[j])) j = i;
    }
    if (j == last_j) break;  // converged
    last_j = j;
    std::fill(x.begin(), x.end(), 0.0);
    x[j] = 1.0;
  }

  // Hager's safeguard probe: an alternating-sign vector catches cases the
  // power iteration misses.
  std::vector<real_t> probe(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    probe[i] = (i % 2 == 0 ? 1.0 : -1.0) *
               (1.0 + static_cast<real_t>(i) / (n > 1 ? n - 1 : 1));
  }
  solve(MatrixView{probe.data(), n, 1, n});
  const real_t alt = 2.0 * norm1(probe) / (3.0 * static_cast<real_t>(n));
  return std::max(estimate, alt);
}

real_t estimate_inverse_norm1(const CholeskyFactor& factor) {
  const SolveSchedule schedule(factor.symbolic());
  SolveWorkspace workspace;
  return estimate_inverse_norm1(factor.symbolic().n, [&](MatrixView x) {
    solve_in_place(factor, x, schedule, workspace);
  });
}

real_t estimate_condition_1(const SparseMatrix& lower_a,
                            const SolveFn& solve) {
  // For symmetric A the 1-norm equals the infinity norm.
  return norm_inf_symmetric(lower_a) *
         estimate_inverse_norm1(lower_a.rows, solve);
}

real_t estimate_condition_1(const SparseMatrix& lower_a,
                            const CholeskyFactor& factor) {
  return norm_inf_symmetric(lower_a) * estimate_inverse_norm1(factor);
}

}  // namespace parfact
