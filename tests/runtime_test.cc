// Tests for the task-DAG runtime: tag packing, graph construction rules,
// critical-path priorities, the virtual-time replay, and the work-stealing
// scheduler (correct dependency order, exception handling, stress).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/scheduler.h"
#include "runtime/task_graph.h"
#include "support/error.h"
#include "support/prng.h"
#include "support/thread_pool.h"

namespace parfact::rt {
namespace {

TEST(Tag, PackingRoundTrips) {
  const tag_t t = make_tag(TaskKind::kTrsm, 123456789u, 407u, 3999u);
  EXPECT_EQ(tag_kind(t), TaskKind::kTrsm);
  EXPECT_EQ(tag_k(t), 123456789u);
  EXPECT_EQ(tag_i(t), 407u);
  EXPECT_EQ(tag_j(t), 3999u);
}

TEST(Tag, DistinctKindsNeverCollide) {
  const tag_t a = make_tag(TaskKind::kPotrf, 7);
  const tag_t b = make_tag(TaskKind::kTrsm, 7);
  const tag_t c = make_tag(TaskKind::kTrsm, 7, 1);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
}

TEST(TaskGraph, DuplicateTagThrows) {
  TaskGraph g;
  g.add_task(make_tag(TaskKind::kUser, 1), [] {});
  EXPECT_THROW(g.add_task(make_tag(TaskKind::kUser, 1), [] {}), Error);
}

TEST(TaskGraph, UnknownDepThrows) {
  TaskGraph g;
  g.add_task(make_tag(TaskKind::kUser, 1), [] {});
  EXPECT_THROW(
      g.declare_deps(make_tag(TaskKind::kUser, 1),
                     {make_tag(TaskKind::kUser, 99)}),
      Error);
}

TEST(TaskGraph, DepDeclaredAfterDependentThrows) {
  // Emission order must be topological: a task may only depend on tasks
  // added before it.
  TaskGraph g;
  g.add_task(make_tag(TaskKind::kUser, 1), [] {});
  g.add_task(make_tag(TaskKind::kUser, 2), [] {});
  EXPECT_THROW(g.declare_deps(make_tag(TaskKind::kUser, 1),
                              {make_tag(TaskKind::kUser, 2)}),
               Error);
}

TEST(TaskGraph, MutationAfterSealThrows) {
  TaskGraph g;
  g.add_task(make_tag(TaskKind::kUser, 1), [] {});
  g.seal();
  EXPECT_THROW(g.add_task(make_tag(TaskKind::kUser, 2), [] {}), Error);
  EXPECT_THROW(g.declare_deps(make_tag(TaskKind::kUser, 1), {}), Error);
}

TEST(TaskGraph, DuplicateEdgesCoalesce) {
  TaskGraph g;
  const tag_t a = make_tag(TaskKind::kUser, 1);
  const tag_t b = make_tag(TaskKind::kUser, 2);
  g.add_task(a, [] {});
  const index_t bi = g.add_task(b, [] {});
  g.declare_deps(b, {a, a, a});
  g.seal();
  EXPECT_EQ(g.node(bi).n_deps, 1);
}

TEST(TaskGraph, PrioritiesAreCriticalPathLengths) {
  // a(2) -> b(3) -> d(1);  a -> c(10)
  TaskGraph g;
  const tag_t a = make_tag(TaskKind::kUser, 1);
  const tag_t b = make_tag(TaskKind::kUser, 2);
  const tag_t c = make_tag(TaskKind::kUser, 3);
  const tag_t d = make_tag(TaskKind::kUser, 4);
  const index_t ai = g.add_task(a, [] {}, 2.0);
  const index_t bi = g.add_task(b, [] {}, 3.0);
  const index_t ci = g.add_task(c, [] {}, 10.0);
  const index_t di = g.add_task(d, [] {}, 1.0);
  g.declare_deps(b, {a});
  g.declare_deps(c, {a});
  g.declare_deps(d, {b});
  g.seal();
  EXPECT_DOUBLE_EQ(g.node(di).priority, 1.0);
  EXPECT_DOUBLE_EQ(g.node(bi).priority, 4.0);
  EXPECT_DOUBLE_EQ(g.node(ci).priority, 10.0);
  EXPECT_DOUBLE_EQ(g.node(ai).priority, 12.0);
}

TEST(Simulate, EmptyGraph) {
  TaskGraph g;
  g.seal();
  const SimulatedSchedule s = g.simulate_makespan(4, 1.0);
  EXPECT_EQ(s.makespan, 0.0);
  EXPECT_EQ(s.busy, 0.0);
}

TEST(Simulate, ChainIsSerial) {
  TaskGraph g;
  tag_t prev = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const tag_t t = make_tag(TaskKind::kUser, i);
    g.add_task(t, [] {}, static_cast<double>(i + 1));
    if (i > 0) g.declare_deps(t, {prev});
    prev = t;
  }
  g.seal();
  const SimulatedSchedule s = g.simulate_makespan(8, 1.0);
  EXPECT_DOUBLE_EQ(s.makespan, 15.0);  // 1+2+3+4+5, no parallelism to find
  EXPECT_DOUBLE_EQ(s.critical_path, 15.0);
  EXPECT_DOUBLE_EQ(s.busy, 15.0);
}

TEST(Simulate, IndependentTasksBalance) {
  TaskGraph g;
  for (std::uint64_t i = 0; i < 6; ++i) {
    g.add_task(make_tag(TaskKind::kUser, i), [] {}, 2.0);
  }
  g.seal();
  EXPECT_DOUBLE_EQ(g.simulate_makespan(1, 1.0).makespan, 12.0);
  EXPECT_DOUBLE_EQ(g.simulate_makespan(3, 1.0).makespan, 4.0);
  EXPECT_DOUBLE_EQ(g.simulate_makespan(6, 1.0).makespan, 2.0);
  EXPECT_DOUBLE_EQ(g.simulate_makespan(6, 2.0).makespan, 1.0);  // rate
  EXPECT_DOUBLE_EQ(g.simulate_makespan(6, 1.0).efficiency(6), 1.0);
}

TEST(Simulate, PriorityKeepsCriticalChainMoving) {
  // A 3-task chain of cost 10 each plus 3 independent cost-10 tasks on two
  // workers: optimal is 30 (one worker owns the chain), and critical-path
  // priorities achieve it. Ignoring priorities can stall the chain to 40.
  TaskGraph g;
  tag_t prev = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const tag_t t = make_tag(TaskKind::kUser, i);
    g.add_task(t, [] {}, 10.0);
    if (i > 0) g.declare_deps(t, {prev});
    prev = t;
  }
  for (std::uint64_t i = 10; i < 13; ++i) {
    g.add_task(make_tag(TaskKind::kUser, i), [] {}, 10.0);
  }
  g.seal();
  EXPECT_DOUBLE_EQ(g.simulate_makespan(2, 1.0).makespan, 30.0);
}

TEST(Simulate, NeverBeatsCriticalPathOrBusyBound) {
  Prng rng(42);
  TaskGraph g;
  std::vector<tag_t> tags;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const tag_t t = make_tag(TaskKind::kUser, i);
    g.add_task(t, [] {}, 1.0 + static_cast<double>(rng.next_below(9)));
    std::vector<tag_t> deps;
    for (int d = 0; d < 3 && !tags.empty(); ++d) {
      deps.push_back(tags[rng.next_below(static_cast<std::uint32_t>(
          tags.size()))]);
    }
    g.declare_deps(t, deps);
    tags.push_back(t);
  }
  g.seal();
  for (const int w : {1, 2, 4, 16}) {
    const SimulatedSchedule s = g.simulate_makespan(w, 1.0);
    EXPECT_GE(s.makespan, s.critical_path - 1e-12) << "w=" << w;
    EXPECT_GE(s.makespan, s.busy / w - 1e-12) << "w=" << w;
    EXPECT_LE(s.makespan, s.busy + 1e-12) << "w=" << w;
  }
}

TEST(Scheduler, EmptyGraphRuns) {
  ThreadPool pool(2);
  TaskGraph g;
  const SchedulerStats stats = run_graph(g, pool);
  EXPECT_EQ(stats.executed, 0);
}

TEST(Scheduler, ExecutesEveryTaskOnceRespectingDeps) {
  ThreadPool pool(3);
  TaskGraph g;
  constexpr int kLayers = 8;
  constexpr int kWidth = 16;
  std::vector<std::atomic<int>> stamp(kLayers * kWidth);
  std::atomic<int> clock{0};
  for (auto& s : stamp) s.store(-1);
  for (std::uint64_t l = 0; l < kLayers; ++l) {
    for (std::uint64_t i = 0; i < kWidth; ++i) {
      const int id = static_cast<int>(l * kWidth + i);
      g.add_task(make_tag(TaskKind::kUser, l, i),
                 [&stamp, &clock, id] {
                   stamp[id].store(clock.fetch_add(1));
                 });
      if (l > 0) {
        // Depend on two tasks of the previous layer.
        g.declare_deps(make_tag(TaskKind::kUser, l, i),
                       {make_tag(TaskKind::kUser, l - 1, i),
                        make_tag(TaskKind::kUser, l - 1,
                                 (i + 1) % kWidth)});
      }
    }
  }
  const SchedulerStats stats = run_graph(g, pool);
  EXPECT_EQ(stats.executed, kLayers * kWidth);
  for (int l = 1; l < kLayers; ++l) {
    for (int i = 0; i < kWidth; ++i) {
      const int id = l * kWidth + i;
      ASSERT_GE(stamp[id].load(), 0);
      EXPECT_GT(stamp[id].load(), stamp[(l - 1) * kWidth + i].load());
      EXPECT_GT(stamp[id].load(),
                stamp[(l - 1) * kWidth + (i + 1) % kWidth].load());
    }
  }
}

TEST(Scheduler, PropagatesTaskException) {
  ThreadPool pool(3);
  TaskGraph g;
  std::atomic<int> after{0};
  g.add_task(make_tag(TaskKind::kUser, 0), [] { throw Error("task died"); });
  g.add_task(make_tag(TaskKind::kUser, 1), [&after] { after.fetch_add(1); });
  g.declare_deps(make_tag(TaskKind::kUser, 1),
                 {make_tag(TaskKind::kUser, 0)});
  EXPECT_THROW(run_graph(g, pool), Error);
  // The dependent of the failed task must have been abandoned, not run.
  EXPECT_EQ(after.load(), 0);
}

TEST(Scheduler, PoolUsableAfterGraphError) {
  ThreadPool pool(2);
  {
    TaskGraph g;
    g.add_task(make_tag(TaskKind::kUser, 0), [] { throw Error("boom"); });
    EXPECT_THROW(run_graph(g, pool), Error);
  }
  TaskGraph g2;
  std::atomic<int> ran{0};
  g2.add_task(make_tag(TaskKind::kUser, 0), [&ran] { ran.fetch_add(1); });
  run_graph(g2, pool);
  EXPECT_EQ(ran.load(), 1);
}

TEST(Scheduler, DoesNotWaitForAnotherCallersTasks) {
  // Another caller holds both workers of a shared pool: the run drains the
  // graph on the calling thread and returns without waiting for them. The
  // blockers give up after 5 s, so a scheduler that waits for them fails
  // instead of hanging.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  for (int i = 0; i < pool.size(); ++i) {
    pool.submit([&] {
      started.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
      finished.fetch_add(1);
    });
  }
  while (started.load() < pool.size()) std::this_thread::yield();

  TaskGraph g;
  std::atomic<int> count{0};
  for (std::uint64_t i = 0; i < 50; ++i) {
    g.add_task(make_tag(TaskKind::kUser, i), [&count] { count.fetch_add(1); });
  }
  const SchedulerStats stats = run_graph(g, pool);
  EXPECT_EQ(stats.executed, 50);
  EXPECT_EQ(count.load(), 50);
  EXPECT_EQ(finished.load(), 0) << "run_graph waited for another caller";
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.wait();
}

TEST(Scheduler, DoesNotRethrowAnotherCallersError) {
  // Another caller's graph fails on the shared pool while its other task
  // still runs: the error is that caller's alone. The waits give up after
  // 5 s, so a run that waits for the other caller fails instead of hanging.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool blocking = false;
  bool failing = false;
  bool release = false;
  const auto wait_until = [&](const bool& flag) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return flag; });
  };
  const auto set = [&](bool& flag) {
    {
      std::lock_guard<std::mutex> lock(mu);
      flag = true;
    }
    cv.notify_all();
  };
  std::thread other([&] {
    TaskGraph g;
    g.add_task(make_tag(TaskKind::kUser, 0), [&] {
      set(blocking);
      wait_until(release);
    });
    g.add_task(make_tag(TaskKind::kUser, 1), [&] {
      wait_until(blocking);
      set(failing);
      throw Error("other caller");
    });
    EXPECT_THROW(run_graph(g, pool), Error);
  });
  wait_until(failing);

  TaskGraph g;
  std::atomic<int> count{0};
  for (std::uint64_t i = 0; i < 50; ++i) {
    g.add_task(make_tag(TaskKind::kUser, i), [&count] { count.fetch_add(1); });
  }
  EXPECT_NO_THROW(run_graph(g, pool));
  EXPECT_EQ(count.load(), 50);
  set(release);
  other.join();
}

TEST(Scheduler, ReusableAcrossGraphs) {
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    TaskGraph g;
    std::atomic<int> count{0};
    for (std::uint64_t i = 0; i < 50; ++i) {
      g.add_task(make_tag(TaskKind::kUser, i),
                 [&count] { count.fetch_add(1); });
    }
    const SchedulerStats stats = run_graph(g, pool);
    EXPECT_EQ(stats.executed, 50);
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(Scheduler, StressRandomDag) {
  // Random DAGs with fan-in up to 4, uneven task durations, several thread
  // counts: every task runs exactly once, all dependency stamps ordered.
  for (const int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    Prng rng(1234 + static_cast<std::uint64_t>(threads));
    TaskGraph g;
    constexpr int kN = 1500;
    std::vector<std::atomic<int>> stamp(kN);
    std::vector<std::vector<int>> deps_of(kN);
    std::atomic<int> clock{0};
    for (auto& s : stamp) s.store(-1);
    for (int t = 0; t < kN; ++t) {
      const auto tu = static_cast<std::uint64_t>(t);
      g.add_task(make_tag(TaskKind::kUser, tu),
                 [&stamp, &clock, t] {
                   // A little uneven spinning so steals actually happen.
                   volatile int sink = 0;
                   for (int i = 0; i < (t % 13) * 50; ++i) sink = sink + i;
                   stamp[t].store(clock.fetch_add(1));
                 });
      if (t > 0) {
        std::vector<tag_t> deps;
        const int nd = static_cast<int>(rng.next_below(4));
        for (int d = 0; d < nd; ++d) {
          const int src =
              static_cast<int>(rng.next_below(static_cast<std::uint32_t>(t)));
          deps.push_back(make_tag(TaskKind::kUser,
                                  static_cast<std::uint64_t>(src)));
          deps_of[t].push_back(src);
        }
        g.declare_deps(make_tag(TaskKind::kUser, tu), deps);
      }
    }
    const SchedulerStats stats = run_graph(g, pool);
    EXPECT_EQ(stats.executed, kN) << "threads=" << threads;
    for (int t = 0; t < kN; ++t) {
      ASSERT_GE(stamp[t].load(), 0) << "task " << t << " never ran";
      for (int d : deps_of[t]) {
        EXPECT_GT(stamp[t].load(), stamp[d].load())
            << "dep order violated: " << d << " -> " << t;
      }
    }
  }
}

}  // namespace
}  // namespace parfact::rt
