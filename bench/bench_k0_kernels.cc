// K0 — Dense-kernel calibration: measured throughput of the four Cholesky
// building blocks across block sizes, via google-benchmark. The GEMM rate
// at the solver's default tile size is what calibrates the machine model
// used by every scaling experiment. The header names the register tile and
// TRSM strip count the host runs (dense/microkernel.h): the rates are that
// engine's.
#include <algorithm>
#include <vector>

#include <benchmark/benchmark.h>

#include "dense/kernels.h"
#include "dense/matrix_view.h"
#include "dense/microkernel.h"
#include "support/prng.h"
#include "support/thread_pool.h"

namespace parfact {
namespace {

std::vector<real_t> random_buffer(std::size_t size, std::uint64_t seed) {
  std::vector<real_t> v(size);
  Prng rng(seed);
  for (auto& x : v) x = rng.next_real(-1, 1);
  return v;
}

void BM_GemmNt(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  auto ca = std::vector<real_t>(static_cast<std::size_t>(m) * m, 0.0);
  const auto aa = random_buffer(ca.size(), 1);
  const auto ba = random_buffer(ca.size(), 2);
  for (auto _ : state) {
    gemm_nt_update(MatrixView{ca.data(), m, m, m},
                   ConstMatrixView{aa.data(), m, m, m},
                   ConstMatrixView{ba.data(), m, m, m});
    benchmark::DoNotOptimize(ca.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * m * m * m * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNt)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmNn(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  auto ca = std::vector<real_t>(static_cast<std::size_t>(m) * m, 0.0);
  const auto aa = random_buffer(ca.size(), 11);
  const auto ba = random_buffer(ca.size(), 12);
  for (auto _ : state) {
    gemm_nn_update(MatrixView{ca.data(), m, m, m},
                   ConstMatrixView{aa.data(), m, m, m},
                   ConstMatrixView{ba.data(), m, m, m});
    benchmark::DoNotOptimize(ca.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * m * m * m * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNn)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmTn(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  auto ca = std::vector<real_t>(static_cast<std::size_t>(m) * m, 0.0);
  const auto aa = random_buffer(ca.size(), 13);
  const auto ba = random_buffer(ca.size(), 14);
  for (auto _ : state) {
    gemm_tn_update(MatrixView{ca.data(), m, m, m},
                   ConstMatrixView{aa.data(), m, m, m},
                   ConstMatrixView{ba.data(), m, m, m});
    benchmark::DoNotOptimize(ca.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * m * m * m * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTn)->Arg(128)->Arg(256)->Arg(512);

// Row-split GEMM across a pool — how the task-DAG factorization splits the
// update of its large fronts (row slabs are bitwise identical to one call).
void BM_GemmNtPool(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  ThreadPool pool(static_cast<int>(state.range(1)));
  const index_t slabs = 4 * static_cast<index_t>(pool.size());
  auto ca = std::vector<real_t>(static_cast<std::size_t>(m) * m, 0.0);
  const auto aa = random_buffer(ca.size(), 15);
  const auto ba = random_buffer(ca.size(), 16);
  const MatrixView c{ca.data(), m, m, m};
  const ConstMatrixView a{aa.data(), m, m, m};
  const ConstMatrixView b{ba.data(), m, m, m};
  for (auto _ : state) {
    parallel_for(pool, 0, slabs, [&](index_t t) {
      const index_t r0 = t * m / slabs;
      const index_t r1 = (t + 1) * m / slabs;
      gemm_nt_update(c.block(r0, 0, r1 - r0, m), a.block(r0, 0, r1 - r0, m),
                     b);
    });
    benchmark::DoNotOptimize(ca.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * m * m * m * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
// Real time, not CPU time: the work runs on pool workers, so the main
// thread's CPU time would wildly overstate the rate.
BENCHMARK(BM_GemmNtPool)->Args({512, 2})->Args({512, 4})->UseRealTime();

void BM_SyrkLower(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  auto ca = std::vector<real_t>(static_cast<std::size_t>(m) * m, 0.0);
  const auto aa = random_buffer(ca.size(), 3);
  for (auto _ : state) {
    syrk_lower_update(MatrixView{ca.data(), m, m, m},
                      ConstMatrixView{aa.data(), m, m, m});
    benchmark::DoNotOptimize(ca.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      1.0 * m * m * m * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SyrkLower)->Arg(64)->Arg(128)->Arg(256);

// Args: {n, k}: the update of a front with n rows below its k pivot
// columns, the shapes the multifrontal SYRK stage spends its time on.
void BM_SyrkFront(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto k = static_cast<index_t>(state.range(1));
  auto ca = std::vector<real_t>(static_cast<std::size_t>(n) * n, 0.0);
  const auto aa = random_buffer(static_cast<std::size_t>(n) * k, 7);
  for (auto _ : state) {
    syrk_lower_update(MatrixView{ca.data(), n, n, n},
                      ConstMatrixView{aa.data(), n, k, n});
    benchmark::DoNotOptimize(ca.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      1.0 * n * n * k * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SyrkFront)
    ->Args({300, 32})
    ->Args({512, 128})
    ->Args({700, 128})
    ->Args({1000, 100});

void BM_Potrf(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  // SPD by diagonal dominance; refresh each iteration (potrf overwrites).
  const auto base = random_buffer(static_cast<std::size_t>(m) * m, 4);
  std::vector<real_t> work(base.size());
  for (auto _ : state) {
    state.PauseTiming();
    work = base;
    for (index_t j = 0; j < m; ++j) {
      work[static_cast<std::size_t>(j) * m + j] = 2.0 * m;
    }
    state.ResumeTiming();
    const index_t info = potrf_lower(MatrixView{work.data(), m, m, m});
    if (info != kNone) state.SkipWithError("potrf failed");
    benchmark::DoNotOptimize(work.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      m / 3.0 * m * m * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Potrf)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Args: {rows, n}, with ld = rows. Front panels have rows = the front's
// below count and n = its width, so the small and odd row counts are the
// common case; rows = 512 (a power-of-two ld) is the worst case for a
// kernel that works in place.
void BM_TrsmRightLowerTrans(benchmark::State& state) {
  const auto rows = static_cast<index_t>(state.range(0));
  const auto m = static_cast<index_t>(state.range(1));
  auto l = random_buffer(static_cast<std::size_t>(m) * m, 5);
  for (index_t j = 0; j < m; ++j) {
    l[static_cast<std::size_t>(j) * m + j] = 2.0 + m;
  }
  const auto b0 = random_buffer(static_cast<std::size_t>(rows) * m, 6);
  auto b = b0;
  for (auto _ : state) {
    // Solve a fresh copy each time: solving in place again and again would
    // shrink B by about 1/(m + 2) per call, through subnormals to zeros,
    // which run at other speeds than a front's values. The copy is timed
    // (one pass over B against m/2 FMAs per element).
    std::copy(b0.begin(), b0.end(), b.begin());
    trsm_right_lower_trans(ConstMatrixView{l.data(), m, m, m},
                           MatrixView{b.data(), rows, m, rows});
    benchmark::DoNotOptimize(b.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      1.0 * rows * m * m * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrsmRightLowerTrans)
    ->ArgsProduct({{64, 256, 1000}, {16, 32, 64}})
    ->Args({512, 32})
    ->Args({512, 64})
    ->Args({512, 128});

}  // namespace
}  // namespace parfact

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "dense_engine", parfact::detail::avx512_tile()
                          ? "24x8 register tile, 8 TRSM strips (x86-64-v4)"
                          : "8x6 register tile, 4 TRSM strips");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
