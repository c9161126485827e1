// Unit tests for livo::util — RNG, stats, thread pool, clocks.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace livo::util {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Gaussian(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.1380899, 1e-6);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Percentile, InterpolatesOrderStatistics) {
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 90), 7.0);
}

// ---- ThreadPool ----

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (int workers : {0, 1, 3}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.worker_count(), workers);
    std::vector<std::atomic<int>> hits(257);
    pool.ParallelFor(257, 0, [&](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForRespectsSerialWidth) {
  ThreadPool pool(3);
  // Width 1 must run on the calling thread in index order.
  const auto caller = std::this_thread::get_id();
  std::vector<int> order;
  pool.ParallelFor(8, 1, [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  for (int workers : {0, 2}) {
    ThreadPool pool(workers);
    std::atomic<int> total{0};
    pool.ParallelFor(4, 0, [&](int) {
      pool.ParallelFor(8, 0, [&](int) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 32);
  }
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(16, 0,
                                [&](int i) {
                                  ran.fetch_add(1);
                                  if (i == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPool, TaskGroupWaitsForSubmittedWork) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 10; ++i) {
    group.Run([&done] { done.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPool, TaskGroupRethrowsTaskException) {
  ThreadPool pool(1);
  ThreadPool::TaskGroup group(pool);
  group.Run([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnWaitingThread) {
  ThreadPool pool(0);
  std::atomic<int> done{0};
  ThreadPool::TaskGroup group(pool);
  group.Run([&done] { done.fetch_add(1); });
  group.Wait();  // the waiter itself must execute the queued task
  EXPECT_EQ(done.load(), 1);
}

// A waiter may destroy its stack TaskGroup the moment Wait() returns, so a
// worker finishing the last task must be done with the group by then.
// Many short-lived groups on real workers make that window likely; under
// ThreadSanitizer (tools/livo_check.sh) a late touch reports a race.
TEST(ThreadPool, ShortLivedTaskGroupsOutliveNoWorker) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 3; ++t) {
    waiters.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        ThreadPool::TaskGroup group(pool);
        group.Run([&done] { done.fetch_add(1); });
        group.Run([&done] { done.fetch_add(1); });
        group.Wait();
      }
    });
  }
  for (std::thread& w : waiters) w.join();
  EXPECT_EQ(done.load(), 6000);
}

TEST(SimClock, AdvancesExplicitly) {
  SimClock clock;
  EXPECT_EQ(clock.NowMs(), 0.0);
  clock.AdvanceMs(33.3);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 33.3);
  clock.SetMs(1000.0);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 1000.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma ewma(0.25);
  EXPECT_FALSE(ewma.initialized());
  for (int i = 0; i < 50; ++i) ewma.Add(42.0);
  EXPECT_TRUE(ewma.initialized());
  EXPECT_NEAR(ewma.value(), 42.0, 1e-9);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma ewma(0.1);
  ewma.Add(7.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 7.0);
  ewma.Add(17.0);
  EXPECT_NEAR(ewma.value(), 8.0, 1e-12);
}

}  // namespace
}  // namespace livo::util
