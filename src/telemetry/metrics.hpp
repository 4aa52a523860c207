// Thread-safe metrics registry: counters, gauges (with high-water marks)
// and histogram-style phase timers, keyed by (rank, name).  This is the
// measured counterpart of the paper's efficiency model (section 8): the
// runtime charges every phase of every step into a timer here, and the
// aggregator in summary.hpp turns the totals into measured T_calc, T_com
// and utilization g = T_calc / (T_calc + T_com), to sit side by side with
// the model's predicted f (eqs. 12-21).
//
// Handles returned by the registry are stable for the registry's
// lifetime, so hot paths may cache them; the lookup itself is a
// mutex-protected map probe, cheap relative to a kernel pass or a socket
// round-trip but not meant for per-node inner loops.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace subsonic {
namespace telemetry {

/// Monotonically increasing event count (messages sent, steps executed,
/// deadline expiries, restarts).  Lock-free; safe from any thread.
class Counter {
 public:
  void add(long long delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

/// Instantaneous level with a high-water mark (send-queue depth, pending
/// checkpoint bytes).
class Gauge {
 public:
  void set(double v);
  void add(double delta);
  double value() const;
  /// Highest value ever set (the interesting number for queue depths).
  double max() const;

 private:
  mutable std::mutex mutex_;
  double value_ = 0;
  double max_ = 0;
};

/// Aggregate of every recording into one timer: count, total, min, max.
struct TimerStats {
  long long count = 0;
  double total_s = 0;
  double min_s = 0;  ///< 0 when count == 0
  double max_s = 0;
  double mean_s() const { return count > 0 ? total_s / count : 0.0; }
};

/// Histogram-style duration accumulator for one (rank, phase) pair.
class PhaseTimer {
 public:
  void record(double seconds);
  TimerStats stats() const;

 private:
  mutable std::mutex mutex_;
  TimerStats stats_;
};

/// Snapshot of one histogram: per-bucket counts (NOT cumulative; the
/// Prometheus exposition cumulates on the way out), total count and sum.
struct HistogramData {
  static constexpr std::size_t kBuckets = 40;
  std::array<long long, kBuckets> buckets{};  ///< zero-initialized
  long long count = 0;
  double sum_s = 0;
  double mean_s() const { return count > 0 ? sum_s / count : 0.0; }
  /// Linear interpolation inside the bucket holding quantile q (0..1).
  /// The +Inf bucket reports the last finite boundary (we cannot know
  /// how far past it the samples landed).
  double quantile_s(double q) const;
};

/// Log-bucketed latency histogram: bucket i counts samples with
/// duration <= 2^i microseconds (i = 0..38); the last bucket is +Inf.
/// That spans 1 us .. ~4.6 min, comfortably covering a cache-hot block
/// compute through a watchdog-scale stall, at a fixed 40 x 8 bytes.
/// Lock-free like Counter: safe from any thread, reads are monotonic.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramData::kBuckets;
  /// Upper boundary of bucket i in seconds; +Inf for the last bucket.
  static double upper_bound_s(std::size_t i);
  /// Index of the bucket a sample of `seconds` falls into.
  static std::size_t bucket_index(double seconds);

  void record(double seconds);
  HistogramData data() const;
  /// Merge a snapshot back in (rebuilds a registry from recorded rows).
  void add(const HistogramData& d);

 private:
  std::array<std::atomic<long long>, kBuckets> buckets_{};
  std::atomic<long long> count_{0};
  std::atomic<double> sum_s_{0.0};
};

/// The registry: lazily creates metrics on first touch and hands out
/// stable references.  Rank -1 is the conventional home for unranked
/// (supervisor / whole-process) metrics.
class MetricsRegistry {
 public:
  Counter& counter(int rank, std::string_view name);
  Gauge& gauge(int rank, std::string_view name);
  PhaseTimer& timer(int rank, std::string_view name);
  Histogram& histogram(int rank, std::string_view name);

  struct CounterRow {
    int rank;
    std::string name;
    long long value;
  };
  struct GaugeRow {
    int rank;
    std::string name;
    double value;
    double max;
  };
  struct TimerRow {
    int rank;
    std::string name;
    TimerStats stats;
  };
  struct HistogramRow {
    int rank;
    std::string name;
    HistogramData data;
  };

  /// Consistent snapshots, sorted by (rank, name).
  std::vector<CounterRow> counters() const;
  std::vector<GaugeRow> gauges() const;
  std::vector<TimerRow> timers() const;
  std::vector<HistogramRow> histograms() const;

 private:
  using Key = std::pair<int, std::string>;
  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<PhaseTimer>> timers_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace telemetry
}  // namespace subsonic
