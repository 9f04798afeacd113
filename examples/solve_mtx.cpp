// Command-line solver for Matrix Market files — the "bring your own matrix"
// entry point. Reads a symmetric matrix in coordinate format, orders,
// factorizes (Cholesky, falling back to LDLᵀ if the matrix turns out
// indefinite), solves against b = A·1 so the exact solution is known, and
// prints the full solver report.
//
// Usage:  ./build/examples/solve_mtx [file.mtx]
// With no argument a demo matrix is written to /tmp and solved, so the
// example is self-contained. A file that cannot be read or parsed prints
// the diagnostic and exits with status 1.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "api/solver.h"
#include "sparse/gen.h"
#include "sparse/io.h"
#include "sparse/ops.h"

using namespace parfact;

namespace {

int run(int argc, char** argv) {
  std::string path;
  if (argc == 2) {
    path = argv[1];
  } else {
    path = "/tmp/parfact_demo.mtx";
    write_matrix_market_file(path, grid_laplacian_3d(15, 15, 15, 7),
                             /*symmetric=*/true);
    std::printf("no file given; wrote and solving demo %s\n", path.c_str());
  }

  const MatrixMarketData data = read_matrix_market_file(path);
  if (!data.symmetric) {
    std::fprintf(stderr, "error: %s is not a symmetric matrix\n",
                 path.c_str());
    return 1;
  }
  const SparseMatrix& a = data.matrix;
  std::printf("matrix: n=%d, nnz(lower)=%d\n", a.rows, a.nnz());

  // Manufactured solution x* = 1, b = A x*.
  const std::vector<real_t> ones(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<real_t> b(ones.size());
  spmv_symmetric_lower(a, ones, b);

  SolverOptions opts;
  Solver solver(opts);
  solver.analyze(a);
  try {
    solver.factorize();
  } catch (const Error&) {
    std::printf("not positive definite — retrying with LDL^T\n");
    opts.factor_kind = FactorKind::kLdlt;
    solver = Solver(opts);
    solver.analyze(a);
    solver.factorize();
  }

  const std::vector<real_t> x = solver.solve_refined(b);
  real_t max_err = 0.0;
  for (real_t v : x) max_err = std::max(max_err, std::abs(v - 1.0));

  const SolverReport& rep = solver.report();
  std::printf("ordering+symbolic : %.3f s\n", rep.analyze_seconds);
  std::printf("factorization     : %.3f s (%.2f Gflop/s)\n",
              rep.factor_seconds,
              static_cast<double>(rep.factor_flops) / rep.factor_seconds /
                  1e9);
  std::printf("nnz(L)            : %lld (fill ratio %.1fx)\n",
              static_cast<long long>(rep.nnz_factor),
              static_cast<double>(rep.nnz_factor) /
                  static_cast<double>(rep.nnz_a));
  std::printf("supernodes        : %d\n", rep.n_supernodes);
  std::printf("condition estimate: %.2e\n", solver.condition_estimate());
  std::printf("residual          : %.2e\n", solver.residual(x, b));
  std::printf("max |x - 1|       : %.2e\n", max_err);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
