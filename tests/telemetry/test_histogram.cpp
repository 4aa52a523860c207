// The log-bucketed latency histogram and the metrics publication path:
// bucket geometry, quantile interpolation, snapshot merging, and the
// snapshot round trip through read_metrics_jsonl — the machinery the live
// introspection plane quotes its percentiles from.
#include "src/telemetry/metrics.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/summary.hpp"
#include "src/telemetry/telemetry.hpp"

namespace subsonic {
namespace telemetry {
namespace {

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/histogram_" + name + "_" +
         std::to_string(::getpid());
}

TEST(Histogram, BucketBoundariesAreLogSpacedMicroseconds) {
  // Bucket i's upper bound is 2^i microseconds; the last bucket is +Inf.
  EXPECT_DOUBLE_EQ(Histogram::upper_bound_s(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::upper_bound_s(1), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::upper_bound_s(10), std::ldexp(1e-6, 10));
  EXPECT_TRUE(std::isinf(Histogram::upper_bound_s(Histogram::kBuckets - 1)));

  // The finite span must cover a cache-hit block compute (sub-us rounds
  // to the first bucket) through a watchdog-scale stall (minutes).
  EXPECT_GT(Histogram::upper_bound_s(Histogram::kBuckets - 2), 270.0);

  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1e-6), 0u);   // boundary is inclusive
  EXPECT_EQ(Histogram::bucket_index(1.5e-6), 1u);
  EXPECT_EQ(Histogram::bucket_index(2e-6), 1u);
  EXPECT_EQ(Histogram::bucket_index(1e9), Histogram::kBuckets - 1);
}

TEST(Histogram, RecordsIntoBucketsAndTracksCountAndSum) {
  Histogram h;
  h.record(0.5e-6);  // bucket 0
  h.record(3e-6);    // bucket 2 (2us < 3us <= 4us)
  h.record(3.5e-6);  // bucket 2
  h.record(1e9);     // +Inf bucket
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, 4);
  EXPECT_DOUBLE_EQ(d.sum_s, 0.5e-6 + 3e-6 + 3.5e-6 + 1e9);
  EXPECT_EQ(d.buckets[0], 1);
  EXPECT_EQ(d.buckets[2], 2);
  EXPECT_EQ(d.buckets[HistogramData::kBuckets - 1], 1);
  long long total = 0;
  for (long long b : d.buckets) total += b;
  EXPECT_EQ(total, d.count);
}

TEST(Histogram, QuantilesInterpolateWithinTheirBucket) {
  Histogram h;
  // 100 samples spread evenly inside bucket 10 (512us .. 1024us].
  const double lo = Histogram::upper_bound_s(9);
  const double hi = Histogram::upper_bound_s(10);
  for (int i = 0; i < 100; ++i)
    h.record(lo + (hi - lo) * (i + 0.5) / 100.0);
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, 100);
  // Every quantile lands inside the bucket, monotonically.
  const double p50 = d.quantile_s(0.50);
  const double p95 = d.quantile_s(0.95);
  const double p99 = d.quantile_s(0.99);
  EXPECT_GE(p50, lo);
  EXPECT_LE(p99, hi);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Uniform fill: p50 sits at the bucket midpoint under linear
  // interpolation.
  EXPECT_NEAR(p50, lo + (hi - lo) * 0.5, (hi - lo) * 0.02);

  // Samples past the finite range: the +Inf bucket reports the last
  // finite boundary rather than inventing a number.
  Histogram inf;
  inf.record(1e9);
  EXPECT_DOUBLE_EQ(inf.data().quantile_s(0.5),
                   Histogram::upper_bound_s(Histogram::kBuckets - 2));

  // Empty histogram: quantiles are 0, not NaN.
  EXPECT_DOUBLE_EQ(HistogramData{}.quantile_s(0.5), 0.0);
}

TEST(Histogram, AddMergesSnapshotsExactly) {
  Histogram a, b;
  a.record(1e-6);
  a.record(5e-3);
  b.record(5e-3);
  b.record(2.0);
  Histogram merged;
  merged.add(a.data());
  merged.add(b.data());
  const HistogramData m = merged.data();
  EXPECT_EQ(m.count, 4);
  EXPECT_DOUBLE_EQ(m.sum_s, 1e-6 + 5e-3 + 5e-3 + 2.0);
  for (std::size_t i = 0; i < HistogramData::kBuckets; ++i)
    EXPECT_EQ(m.buckets[i], a.data().buckets[i] + b.data().buckets[i]) << i;
}

TEST(Histogram, ConcurrentRecordsAreAllCounted) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(1e-6 * (1 + (t + i) % 1000));
    });
  for (std::thread& t : threads) t.join();
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, kThreads * kPerThread);
  long long total = 0;
  for (long long b : d.buckets) total += b;
  EXPECT_EQ(total, d.count);
}

TEST(MetricsRegistry, HistogramsSnapshotSortedByRankAndName) {
  MetricsRegistry reg;
  reg.histogram(1, "step.wall").record(1e-3);
  reg.histogram(0, "step.wall").record(2e-3);
  reg.histogram(0, "comm.exchange").record(3e-3);
  const auto rows = reg.histograms();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].rank, 0);
  EXPECT_EQ(rows[0].name, "comm.exchange");
  EXPECT_EQ(rows[1].rank, 0);
  EXPECT_EQ(rows[1].name, "step.wall");
  EXPECT_EQ(rows[2].rank, 1);
  EXPECT_EQ(rows[2].name, "step.wall");
  EXPECT_EQ(rows[0].data.count, 1);
}

/// The snapshot must read back as exactly the live registry's totals
/// after any number of flushes — that equivalence is what lets a killed
/// rank contribute its last snapshot as if it had exited cleanly.
TEST(MetricsDelta, FlushedStreamAccumulatesBackToLiveTotals) {
  const std::string path = tmp_path("delta_roundtrip");
  Session session;
  MetricsRegistry& reg = session.metrics();

  reg.counter(0, "steps").add(5);
  reg.gauge(0, "queue").set(4.0);
  reg.timer(0, "compute.kernel").record(0.25);
  reg.histogram(0, "step.wall").record(1e-3);
  session.flush_metrics_delta(path);

  reg.counter(0, "steps").add(3);
  reg.gauge(0, "queue").set(2.0);  // down from the high-water mark
  reg.timer(0, "compute.kernel").record(0.75);
  reg.histogram(0, "step.wall").record(4e-3);
  reg.histogram(0, "step.wall").record(8.0);
  reg.counter(0, "late.counter").add(1);  // born between flushes
  session.flush_metrics_delta(path);

  const std::vector<RankMetrics> ranks = read_metrics_jsonl(path);
  ASSERT_EQ(ranks.size(), 1u);
  const RankMetrics& rm = ranks[0];
  const RankMetrics live = collect_rank(reg, 0);

  EXPECT_EQ(rm.counter_or("steps"), 8);
  EXPECT_EQ(rm.counter_or("late.counter"), 1);
  EXPECT_DOUBLE_EQ(rm.gauges.at("queue").value, 2.0);
  EXPECT_DOUBLE_EQ(rm.gauges.at("queue").max, 4.0);
  const TimerStats& t = rm.timers.at("compute.kernel");
  EXPECT_EQ(t.count, 2);
  EXPECT_DOUBLE_EQ(t.total_s, 1.0);
  EXPECT_DOUBLE_EQ(t.min_s, 0.25);
  EXPECT_DOUBLE_EQ(t.max_s, 0.75);
  const HistogramData& h = rm.histograms.at("step.wall");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum_s, live.histograms.at("step.wall").sum_s);
  for (std::size_t i = 0; i < HistogramData::kBuckets; ++i)
    EXPECT_EQ(h.buckets[i], live.histograms.at("step.wall").buckets[i]) << i;
  EXPECT_FALSE(rm.partial);
}

TEST(MetricsDelta, FirstFlushTruncatesAStaleStream) {
  // A respawned child reuses the rank's path; its first flush must
  // replace its predecessor's snapshot, not add onto it (the supervisor
  // folded that one separately).
  const std::string path = tmp_path("delta_truncate");
  {
    Session first_life;
    first_life.metrics().counter(0, "steps").add(100);
    first_life.flush_metrics_delta(path);
  }
  Session second_life;
  second_life.metrics().counter(0, "steps").add(7);
  second_life.flush_metrics_delta(path);

  const std::vector<RankMetrics> ranks = read_metrics_jsonl(path);
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_EQ(ranks[0].counter_or("steps"), 7);
}

TEST(MetricsDelta, ReaderNeverSeesATornSnapshot) {
  // Publication replaces the snapshot atomically: a reader racing 2,000
  // publications sees every row of one complete snapshot each time,
  // never a half-written file.  The two counters move together, so a
  // read that mixed two snapshots would also show them unequal.
  const std::string path = tmp_path("snapshot_race");
  Session session;
  MetricsRegistry& reg = session.metrics();
  Counter& a = reg.counter(0, "a");
  Counter& b = reg.counter(0, "b");
  Histogram& h = reg.histogram(0, "step.wall");
  a.add();
  b.add();
  h.record(1e-3);
  session.flush_metrics_delta(path);

  std::atomic<bool> done{false};
  int reads = 0, torn = 0;
  std::thread reader([&] {
    do {
      const std::vector<RankMetrics> ranks = read_metrics_jsonl(path);
      ++reads;
      const bool whole = ranks.size() == 1 && ranks[0].counters.count("a") &&
                         ranks[0].counters.count("b") &&
                         ranks[0].histograms.count("step.wall") &&
                         ranks[0].counters.at("a") == ranks[0].counters.at("b");
      if (!whole) ++torn;
    } while (!done.load());
  });
  for (int i = 0; i < 2000; ++i) {
    a.add();
    b.add();
    h.record(1e-3 * (i % 7 + 1));
    session.flush_metrics_delta(path);
  }
  done.store(true);
  reader.join();
  EXPECT_GT(reads, 0);
  EXPECT_EQ(torn, 0) << torn << " of " << reads << " reads were torn";
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  const std::vector<RankMetrics> last = read_metrics_jsonl(path);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].counter_or("a"), 2001);
  EXPECT_EQ(last[0].histograms.at("step.wall").count, 2001);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace telemetry
}  // namespace subsonic
