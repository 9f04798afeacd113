#include "inputs.h"

#include <algorithm>
#include <numeric>

#include "sparse/gen.h"
#include "sparse/ops.h"

namespace perfbench {

Prng stream(std::uint64_t seed, std::uint64_t tag) {
  return Prng(seed * 0x9e3779b97f4a7c15ull + tag * 0xbf58476d1ce4e5b9ull);
}

std::vector<real_t> random_vector(index_t n, Prng& rng) {
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (real_t& x : v) x = rng.next_real(-1.0, 1.0);
  return v;
}

std::vector<real_t> spd_value_set(const SparseMatrix& lower, Prng& rng) {
  std::vector<real_t> d(static_cast<std::size_t>(lower.cols));
  for (real_t& x : d) x = rng.next_real(0.5, 2.0);
  std::vector<real_t> v(lower.values.size());
  for (index_t j = 0; j < lower.cols; ++j) {
    for (index_t q = lower.col_ptr[j]; q < lower.col_ptr[j + 1]; ++q) {
      v[q] = lower.values[q] * d[lower.row_ind[q]] * d[j];
    }
  }
  return v;
}

SparseMatrix with_values(const SparseMatrix& pattern,
                         const std::vector<real_t>& values) {
  SparseMatrix m = pattern;
  m.values = values;
  return m;
}

std::vector<SparseMatrix> cold_bases(bool mini) {
  if (mini) {
    return {parfact::grid_laplacian_3d(5, 5, 5),
            parfact::elasticity_3d(2, 2, 2),
            parfact::grid_laplacian_2d(12, 12)};
  }
  return {parfact::grid_laplacian_3d(12, 12, 12),
          parfact::elasticity_3d(5, 5, 5), parfact::grid_laplacian_2d(64, 64)};
}

SparseMatrix relabel(const SparseMatrix& base, Prng& rng) {
  std::vector<index_t> perm(static_cast<std::size_t>(base.rows));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  return parfact::lower_triangle(
      parfact::permute_symmetric(parfact::symmetrize_full(base), perm));
}

ColdRequest make_cold_request(const std::vector<SparseMatrix>& bases,
                              std::size_t i, Prng& rng) {
  ColdRequest r;
  r.a = relabel(bases[i % bases.size()], rng);
  r.b = random_vector(r.a.rows, rng);
  return r;
}

ValuePool make_value_pool(const SparseMatrix& base, int n_values, int n_rhs,
                          Prng& rng) {
  ValuePool pool;
  pool.pattern = base;
  for (int v = 0; v < n_values; ++v) {
    pool.values.push_back(spd_value_set(base, rng));
  }
  for (int r = 0; r < n_rhs; ++r) {
    pool.rhs.push_back(random_vector(base.rows, rng));
  }
  pool.pattern.values = pool.values.front();
  return pool;
}

SparseMatrix refactor_base(bool mini) {
  return mini ? parfact::elasticity_3d(3, 3, 3)
              : parfact::elasticity_3d(12, 12, 12);
}

std::vector<int> make_refactor_schedule(Prng& rng) {
  std::vector<int> schedule(kRefactorScheduleLength);
  for (int& v : schedule) {
    v = static_cast<int>(rng.next_below(kRefactorValueSets));
  }
  return schedule;
}

std::vector<SparseMatrix> service_patterns(bool mini) {
  if (mini) {
    return {parfact::grid_laplacian_3d(5, 5, 5),
            parfact::elasticity_3d(2, 2, 2), parfact::grid_laplacian_2d(14, 14),
            parfact::grid_laplacian_3d(6, 6, 6)};
  }
  // Factors of 3.8-4.7 MB each, so a reload costs about the same whichever
  // session it serves and p50 does not sit between reload sizes.
  return {parfact::grid_laplacian_3d(16, 16, 16),
          parfact::elasticity_3d(8, 8, 8), parfact::grid_laplacian_2d(112, 112),
          parfact::grid_laplacian_3d(10, 20, 20)};
}

std::vector<ServiceOp> make_service_stream(int client, Prng& rng) {
  std::vector<int> own;
  for (int s = 0; s < kServiceSessions; ++s) {
    if (service_client_of(s) == client) own.push_back(s);
  }
  std::vector<ServiceOp> ops(kServiceStreamLength);
  for (ServiceOp& op : ops) {
    op.session = own[rng.next_below(own.size())];
    op.refactor = rng.next_below(10) == 0;
    op.index = static_cast<int>(
        rng.next_below(op.refactor ? kServiceValueSets : kServiceRhs));
  }
  return ops;
}

std::vector<int> service_initial_values(Prng& rng) {
  std::vector<int> v(kServiceSessions);
  for (int& x : v) x = static_cast<int>(rng.next_below(kServiceValueSets));
  return v;
}

}  // namespace perfbench
