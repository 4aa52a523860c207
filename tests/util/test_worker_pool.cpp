#include "src/util/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace subsonic {
namespace {

TEST(WorkerPool, ChunksPartitionTheRangeExactly) {
  for (int threads : {1, 2, 3, 4, 7}) {
    for (int lo : {0, -5, 3}) {
      for (int n : {0, 1, 2, threads - 1, threads, 10 * threads + 3}) {
        const int hi = lo + n;
        EXPECT_EQ(WorkerPool::chunk_begin(lo, hi, 0, threads), lo);
        EXPECT_EQ(WorkerPool::chunk_begin(lo, hi, threads, threads), hi);
        for (int t = 0; t < threads; ++t) {
          const int a = WorkerPool::chunk_begin(lo, hi, t, threads);
          const int b = WorkerPool::chunk_begin(lo, hi, t + 1, threads);
          EXPECT_LE(a, b);
        }
      }
    }
  }
}

TEST(WorkerPool, EveryIndexVisitedExactlyOnce) {
  WorkerPool pool(4);
  const int lo = -3, hi = 101;
  std::vector<std::atomic<int>> visits(hi - lo);
  pool.for_range(lo, hi, [&](int a, int b) {
    for (int i = a; i < b; ++i) visits[i - lo].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(WorkerPool, ReusableAcrossManyRegions) {
  WorkerPool pool(3);
  long long total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<long long> sum{0};
    pool.for_range(0, 1000, [&](int a, int b) {
      long long local = 0;
      for (int i = a; i < b; ++i) local += i;
      sum.fetch_add(local);
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 50LL * (999LL * 1000 / 2));
}

TEST(WorkerPool, EmptyRangeIsANoop) {
  WorkerPool pool(2);
  bool called = false;
  pool.for_range(5, 5, [&](int, int) { called = true; });
  pool.for_range(5, 3, [&](int, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkerPool, SingleThreadRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  int calls = 0;
  pool.for_range(0, 10, [&](int a, int b) {
    ++calls;
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 10);
  });
  EXPECT_EQ(calls, 1);
}

TEST(WorkerPool, RangeSmallerThanPoolStillCoversAll) {
  WorkerPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  pool.for_range(0, 3, [&](int a, int b) {
    for (int i = a; i < b; ++i) visits[i].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(WorkerPool, ExceptionsPropagateAndPoolSurvives) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.for_range(0, 100,
                              [&](int a, int) {
                                if (a == 0)
                                  throw std::runtime_error("chunk failed");
                              }),
               std::runtime_error);
  // The pool must remain usable after a failed region.
  std::atomic<int> count{0};
  pool.for_range(0, 10, [&](int a, int b) { count.fetch_add(b - a); });
  EXPECT_EQ(count.load(), 10);
}

TEST(WeightedBounds, PartitionIsValidAndDeterministic) {
  // A wall-heavy profile: work concentrated in the last quarter of the
  // range, like a subregion whose lower rows are all solid.
  const auto weight = [](int i) -> long long { return i < 30 ? 0 : 40; };
  for (int threads : {1, 2, 3, 4, 7}) {
    const auto bounds = WorkerPool::weighted_bounds(0, 40, threads, weight);
    ASSERT_EQ(bounds.size(), static_cast<size_t>(threads) + 1);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), 40);
    for (int t = 0; t < threads; ++t) EXPECT_LE(bounds[t], bounds[t + 1]);
    // Same inputs, same partition.
    EXPECT_EQ(bounds, WorkerPool::weighted_bounds(0, 40, threads, weight));
  }
}

TEST(WeightedBounds, WallHeavyMaskBalancesWork) {
  // 100 rows, the first 80 solid (weight 0) and the last 20 fluid
  // (weight 50 each).  The equal-count split at 4 threads gives the last
  // thread all 20 fluid rows; the weighted split must spread them out.
  const auto weight = [](int i) -> long long { return i < 80 ? 0 : 50; };
  const int threads = 4;
  const auto bounds = WorkerPool::weighted_bounds(0, 100, threads, weight);
  long long total = 0;
  for (int i = 0; i < 100; ++i) total += weight(i) + 1;
  for (int t = 0; t < threads; ++t) {
    long long w = 0;
    for (int i = bounds[t]; i < bounds[t + 1]; ++i) w += weight(i) + 1;
    // Every thread's share is within one row's weight of the ideal.
    EXPECT_LE(w, total / threads + 51) << "thread " << t;
  }
  // In particular, the fluid block is split across threads: the last
  // thread must own at most ~1/4 of the fluid rows plus slack, not all 20.
  EXPECT_GE(bounds[threads - 1], 85);
}

TEST(WeightedBounds, UniformWeightsMatchEqualCountSplit) {
  // 120 is divisible by every thread count here, so the weighted split
  // with uniform weights lands on exactly the equal-count boundaries.
  for (int threads : {1, 2, 3, 4}) {
    const auto bounds = WorkerPool::weighted_bounds(
        0, 120, threads, [](int) -> long long { return 7; });
    for (int t = 0; t <= threads; ++t)
      EXPECT_EQ(bounds[t], WorkerPool::chunk_begin(0, 120, t, threads));
  }
}

TEST(WeightedBounds, AllZeroWeightsStillSplitEvenly) {
  const auto bounds = WorkerPool::weighted_bounds(
      0, 12, 3, [](int) -> long long { return 0; });
  EXPECT_EQ(bounds, (std::vector<int>{0, 4, 8, 12}));
}

TEST(WorkerPoolWeighted, EveryIndexVisitedExactlyOnce) {
  WorkerPool pool(4);
  const int lo = 0, hi = 97;
  std::vector<std::atomic<int>> visits(hi - lo);
  pool.for_weighted(
      lo, hi, [](int i) -> long long { return i < 50 ? 0 : 9; },
      [&](int a, int b) {
        for (int i = a; i < b; ++i) visits[i - lo].fetch_add(1);
      });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(WorkerPoolWeighted, InterleavesWithForRange) {
  WorkerPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.for_weighted(
        0, 100, [](int i) -> long long { return i % 5; },
        [&](int a, int b) { count.fetch_add(b - a); });
    EXPECT_EQ(count.load(), 100);
    count = 0;
    pool.for_range(0, 100, [&](int a, int b) { count.fetch_add(b - a); });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ResolveThreads, ExplicitCountsStopAtKMaxThreads) {
  // The resolver alone: no pool is built from these values.
  EXPECT_EQ(resolve_threads(kMaxThreads), kMaxThreads);
  EXPECT_THROW(resolve_threads(kMaxThreads + 1), std::invalid_argument);
  EXPECT_THROW(resolve_threads(100000), std::invalid_argument);
}

TEST(ResolveThreads, ExplicitWinsOverEnvironment) {
  ::setenv("SUBSONIC_THREADS", "7", 1);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(0), 7);
  ::setenv("SUBSONIC_THREADS", "garbage", 1);
  EXPECT_THROW(resolve_threads(0), std::invalid_argument);
  ::unsetenv("SUBSONIC_THREADS");
  EXPECT_EQ(resolve_threads(0), 1);
}

}  // namespace
}  // namespace subsonic
