// The telemetry session: one MetricsRegistry plus one (optional)
// TraceBuffer behind a shared steady-clock origin.  Every driver owns a
// session; in the fork()-based process runtime each child owns one whose
// origin is inherited from the supervisor, so spans from different ranks
// align on one timeline (CLOCK_MONOTONIC is system-wide, shared across
// fork()).
//
// Overhead discipline: phase timers are always charged — two clock reads
// and a mutexed accumulate per *phase* — while trace-event recording (one
// heap allocation per span) only happens when tracing is enabled, normally
// via SUBSONIC_TRACE=1.  Telemetry never touches simulation state, so results
// are bitwise identical with it on, off, or absent (tested).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/telemetry/metrics.hpp"
#include "src/telemetry/trace.hpp"

namespace subsonic {
namespace telemetry {

/// True when SUBSONIC_TRACE is set to anything but "" or "0".
bool trace_enabled_from_env();

struct SessionConfig {
  /// Record per-span Chrome trace events (the registry is always live).
  bool trace = false;
  /// Steady-clock origin in nanoseconds (time_since_epoch); -1 = now.
  /// Supervisors pass their own origin to children for aligned traces.
  std::int64_t origin_ns = -1;
};

class Session {
 public:
  explicit Session(SessionConfig cfg = {});
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Config for a standalone session: tracing per SUBSONIC_TRACE.
  static SessionConfig from_env();

  MetricsRegistry& metrics() { return *metrics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }
  /// Shared handle for transports, which may outlive the session owner.
  std::shared_ptr<MetricsRegistry> metrics_ptr() const { return metrics_; }

  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }

  bool tracing() const { return cfg_.trace; }
  std::int64_t origin_ns() const { return cfg_.origin_ns; }
  /// Microseconds elapsed since the session origin.
  double now_us() const;

  void write_trace_json(const std::string& path) const;
  /// One flat JSON object per line: every counter, gauge, timer and
  /// histogram row.  The format round-trips through read_metrics_jsonl
  /// (summary.hpp).
  void write_metrics_jsonl(const std::string& path) const;

  /// Incremental publication: append only what changed since the last
  /// flush.  The first call truncates the file (so a restarted child
  /// starts a fresh stream); later calls append delta records — counter
  /// values and timer/histogram counts are interval deltas, timer
  /// min_s/max_s stay cumulative (min-of-min / max-of-max merging is
  /// exact), gauges rewrite their current value.  read_metrics_jsonl
  /// accumulates the stream back into whole-run totals, so a killed rank
  /// contributes everything up to its last flush instead of nothing.
  /// Best-effort: an unwritable path is ignored (a dying child must not
  /// throw out of its flush).
  void flush_metrics_delta(const std::string& path);

 private:
  SessionConfig cfg_;
  std::shared_ptr<MetricsRegistry> metrics_;
  TraceBuffer trace_;

  // Per-metric high-water marks of what the delta stream already carries.
  using MetricKey = std::pair<int, std::string>;
  bool delta_started_ = false;
  std::map<MetricKey, long long> flushed_counters_;
  std::map<MetricKey, std::pair<double, double>> flushed_gauges_;
  std::map<MetricKey, TimerStats> flushed_timers_;
  std::map<MetricKey, HistogramData> flushed_hists_;
};

/// RAII span: times a block, charges the (rank, name) phase timer, and —
/// when the session is tracing — appends a trace event.  A null session
/// makes the span a true no-op (not even a clock read).
class ScopedSpan {
 public:
  ScopedSpan(Session* session, int rank, const char* name, const char* cat,
             long step = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now (idempotent) and returns its measured seconds,
  /// so callers can also feed a histogram of their own.
  double stop();

 private:
  Session* session_;
  int rank_;
  const char* name_;
  const char* cat_;
  long step_;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = 0;
  bool done_ = false;
};

}  // namespace telemetry
}  // namespace subsonic
