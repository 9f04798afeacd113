#include "baseline/iccg.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "baseline/simplicial.h"
#include "sparse/ops.h"
#include "support/error.h"
#include "support/status.h"

namespace parfact {

SparseMatrix incomplete_cholesky0(const SparseMatrix& lower,
                                  PivotPolicy pivot,
                                  count_t* perturbations) {
  PARFACT_CHECK(lower.rows == lower.cols);
  const real_t magnitude = pivot_magnitude(pivot, lower);
  count_t boosted = 0;
  SparseMatrix l = lower;  // same pattern, values overwritten in place
  const index_t n = l.cols;
  for (index_t j = 0; j < n; ++j) {
    const index_t p0 = l.col_ptr[j];
    PARFACT_CHECK_MSG(l.row_ind[p0] == j, "missing diagonal in column " << j);
    real_t diag = l.values[p0];
    const bool boost = diag <= magnitude;
    if (!std::isfinite(diag) || (boost && magnitude == 0.0)) {
      std::ostringstream os;
      os << "IC(0) pivot breakdown at column " << j;
      throw StatusError(Status::failure(StatusCode::kBreakdown, os.str()));
    }
    if (boost) {
      diag = magnitude;
      ++boosted;
    }
    const real_t d = std::sqrt(diag);
    l.values[p0] = d;
    for (index_t p = p0 + 1; p < l.col_ptr[j + 1]; ++p) l.values[p] /= d;

    // Right-looking update restricted to existing entries: for each pair of
    // below-diagonal entries (r, j) and (i, j) with i >= r, update (i, r)
    // if that position exists in the pattern.
    for (index_t pr = p0 + 1; pr < l.col_ptr[j + 1]; ++pr) {
      const index_t r = l.row_ind[pr];
      const real_t lrj = l.values[pr];
      if (lrj == 0.0) continue;
      const auto col_begin = l.row_ind.begin() + l.col_ptr[r];
      const auto col_end = l.row_ind.begin() + l.col_ptr[r + 1];
      for (index_t pi = pr; pi < l.col_ptr[j + 1]; ++pi) {
        const index_t i = l.row_ind[pi];
        const auto it = std::lower_bound(col_begin, col_end, i);
        if (it != col_end && *it == i) {
          l.values[it - l.row_ind.begin()] -= l.values[pi] * lrj;
        }
      }
    }
  }
  if (perturbations != nullptr) *perturbations = boosted;
  return l;
}

CgResult conjugate_gradient(const SparseMatrix& lower_a,
                            std::span<const real_t> b, std::span<real_t> x,
                            const SparseMatrix* ic0, int max_iterations,
                            real_t tol) {
  const index_t n = lower_a.rows;
  PARFACT_CHECK(static_cast<index_t>(b.size()) == n &&
                static_cast<index_t>(x.size()) == n);
  CgResult result;

  std::vector<real_t> r(static_cast<std::size_t>(n));
  std::vector<real_t> z(static_cast<std::size_t>(n));
  std::vector<real_t> p(static_cast<std::size_t>(n));
  std::vector<real_t> ap(static_cast<std::size_t>(n));

  const real_t bnorm = norm2(b);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    result.converged = true;
    return result;
  }

  spmv_symmetric_lower(lower_a, x, r);
  for (index_t i = 0; i < n; ++i) r[i] = b[i] - r[i];

  auto apply_preconditioner = [&](const std::vector<real_t>& in,
                                  std::vector<real_t>& out) {
    out = in;
    if (ic0 != nullptr) {
      simplicial_forward_solve(*ic0, out);
      simplicial_backward_solve(*ic0, out);
    }
  };

  apply_preconditioner(r, z);
  p = z;
  real_t rz = dot(r, z);

  for (result.iterations = 0; result.iterations < max_iterations;
       ++result.iterations) {
    result.residual = norm2(r) / bnorm;
    if (result.residual <= tol) {
      result.converged = true;
      return result;
    }
    spmv_symmetric_lower(lower_a, p, ap);
    const real_t pap = dot(p, ap);
    PARFACT_CHECK_MSG(pap > 0.0, "CG: matrix is not positive definite");
    const real_t alpha = rz / pap;
    for (index_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    apply_preconditioner(r, z);
    const real_t rz_new = dot(r, z);
    const real_t beta = rz_new / rz;
    rz = rz_new;
    for (index_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  result.residual = norm2(r) / bnorm;
  result.converged = result.residual <= tol;
  return result;
}

}  // namespace parfact
