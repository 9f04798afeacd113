// K0 — Dense-kernel calibration: measured throughput of the four Cholesky
// building blocks across block sizes, via google-benchmark. The GEMM rate
// at the solver's default tile size is what calibrates the machine model
// used by every scaling experiment.
#include <vector>

#include <benchmark/benchmark.h>

#include "dense/kernels.h"
#include "dense/matrix_view.h"
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
BENCHMARK(BM_Potrf)->Arg(64)->Arg(128)->Arg(256);

void BM_TrsmRightLowerTrans(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  const index_t rows = 512;
  auto l = random_buffer(static_cast<std::size_t>(m) * m, 5);
  for (index_t j = 0; j < m; ++j) {
    l[static_cast<std::size_t>(j) * m + j] = 2.0 + m;
  }
  auto b = random_buffer(static_cast<std::size_t>(rows) * m, 6);
  for (auto _ : state) {
    trsm_right_lower_trans(ConstMatrixView{l.data(), m, m, m},
                           MatrixView{b.data(), rows, m, rows});
    benchmark::DoNotOptimize(b.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      1.0 * rows * m * m * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrsmRightLowerTrans)->Arg(32)->Arg(64)->Arg(128);

}  // namespace
}  // namespace parfact

BENCHMARK_MAIN();
