// Tests for the support module: checks, PRNG, thread pool, stats.
#include <atomic>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.h"
#include "support/prng.h"
#include "support/stats.h"
#include "support/thread_pool.h"
#include "support/timer.h"
#include "support/types.h"

namespace parfact {
namespace {

TEST(Error, CheckThrowsWithLocation) {
  try {
    PARFACT_CHECK_MSG(1 == 2, "custom payload " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom payload 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(PARFACT_CHECK(2 + 2 == 4));
}

TEST(Prng, Deterministic) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Prng, NextBelowInRangeAndRoughlyUniform) {
  Prng rng(7);
  std::vector<int> hist(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++hist[v];
  }
  for (int h : hist) {
    EXPECT_NEAR(h, draws / 10, draws / 50);  // within 20% of expectation
  }
}

TEST(Prng, RealInUnitInterval) {
  Prng rng(99);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_real();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, SignIsBalanced) {
  Prng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) sum += rng.next_sign();
  EXPECT_LT(std::abs(sum), 400.0);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(pool.wait(), Error);
  // Pool must still be usable after an error.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, NestedSubmissionFromInsideTask) {
  // The task-DAG scheduler's workers submit successor work from inside
  // running tasks; the pool must accept that without deadlock (submit only
  // takes the queue lock, never waits).
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.submit([&pool, &counter] {
        counter.fetch_add(1);
        pool.submit([&counter] { counter.fetch_add(1); });
      });
    });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 24);
}

TEST(ThreadPool, ShutdownDrainsPendingTasks) {
  // Destroying the pool with queued work must not hang or drop tasks: the
  // workers drain the queue before exiting (the runtime relies on this when
  // a graph run is abandoned after an error).
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    // No wait(): destructor handles the backlog.
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(Stats, Summary) {
  const std::vector<double> v{1.0, 2.0, 3.0, 6.0};
  const SampleSummary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.total, 12.0);
  EXPECT_DOUBLE_EQ(s.imbalance(), 2.0);
}

TEST(Stats, ImbalanceOfZeroSampleIsOne) {
  const std::vector<double> v{0.0, 0.0};
  EXPECT_DOUBLE_EQ(summarize(v).imbalance(), 1.0);
}

TEST(Timer, MeasuresNonNegativeTime) {
  WallTimer t;
  double x = 0.0;
  for (int i = 0; i < 1000; ++i) x += std::sqrt(static_cast<double>(i));
  EXPECT_GE(x, 0.0);
  EXPECT_GE(t.seconds(), 0.0);
  t.restart();
  EXPECT_GE(t.seconds(), 0.0);
}

}  // namespace
}  // namespace parfact
