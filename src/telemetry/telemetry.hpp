// The telemetry session: one MetricsRegistry plus one (optional)
// TraceBuffer behind a shared steady-clock origin.  Every driver owns a
// session; in the fork()-based process runtime each child owns one whose
// origin is inherited from the supervisor, so spans from different ranks
// align on one timeline (CLOCK_MONOTONIC is system-wide, shared across
// fork()).  A child's registry reaches the supervisor one way only: the
// snapshot file flush_metrics_delta replaces atomically.
//
// Overhead discipline: phase timers are always charged — two clock reads
// and a mutexed accumulate per *phase* — while trace-event recording (one
// heap allocation per span) only happens when tracing is enabled, normally
// via SUBSONIC_TRACE=1.  Telemetry never touches simulation state, so results
// are bitwise identical with it on, off, or absent (tested).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

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

  /// Publishes a snapshot of every counter, gauge, timer and histogram
  /// row, one flat JSON object per line (read_metrics_jsonl parses it
  /// back).  The rows go to "<path>.tmp", which is then renamed over
  /// `path`: a reader, or a writer killed mid-flush, leaves the previous
  /// complete snapshot or the new one, never a torn mix.  No fsync: the
  /// guard is against a killed writer, not an OS crash.  Best-effort: an
  /// unwritable path is ignored (a dying child must not throw out of its
  /// flush).  The name predates snapshots: e2ebench/ calls it, and only a
  /// benchmark change edits e2ebench/, so the rename waits for one.
  void flush_metrics_delta(const std::string& path);

 private:
  SessionConfig cfg_;
  std::shared_ptr<MetricsRegistry> metrics_;
  TraceBuffer trace_;
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
