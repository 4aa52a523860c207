#include "src/telemetry/telemetry.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

namespace subsonic {
namespace telemetry {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t this_thread_tid() {
  // A short, stable per-thread id for the trace; collisions merely merge
  // two tracks visually.
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFFu;
}

}  // namespace

bool trace_enabled_from_env() {
  const char* env = std::getenv("SUBSONIC_TRACE");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

Session::Session(SessionConfig cfg)
    : cfg_(cfg), metrics_(std::make_shared<MetricsRegistry>()) {
  if (cfg_.origin_ns < 0) cfg_.origin_ns = now_ns();
}

SessionConfig Session::from_env() {
  SessionConfig cfg;
  cfg.trace = trace_enabled_from_env();
  return cfg;
}

double Session::now_us() const {
  return static_cast<double>(now_ns() - cfg_.origin_ns) / 1e3;
}

void Session::write_trace_json(const std::string& path) const {
  trace_.write_chrome_trace(path);
}

void Session::flush_metrics_delta(const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return;
  for (const auto& row : metrics_->counters())
    std::fprintf(f,
                 "{\"kind\":\"counter\",\"rank\":%d,\"name\":\"%s\","
                 "\"value\":%lld}\n",
                 row.rank, row.name.c_str(), row.value);
  for (const auto& row : metrics_->gauges())
    std::fprintf(f,
                 "{\"kind\":\"gauge\",\"rank\":%d,\"name\":\"%s\","
                 "\"value\":%.17g,\"max\":%.17g}\n",
                 row.rank, row.name.c_str(), row.value, row.max);
  for (const auto& row : metrics_->timers())
    std::fprintf(f,
                 "{\"kind\":\"timer\",\"rank\":%d,\"name\":\"%s\","
                 "\"count\":%lld,\"total_s\":%.17g,\"min_s\":%.17g,"
                 "\"max_s\":%.17g}\n",
                 row.rank, row.name.c_str(), row.stats.count,
                 row.stats.total_s, row.stats.min_s, row.stats.max_s);
  for (const auto& row : metrics_->histograms()) {
    const HistogramData& d = row.data;
    std::fprintf(f,
                 "{\"kind\":\"hist\",\"rank\":%d,\"name\":\"%s\","
                 "\"count\":%lld,\"sum_s\":%.17g,\"buckets\":[",
                 row.rank, row.name.c_str(), d.count, d.sum_s);
    for (std::size_t i = 0; i < HistogramData::kBuckets; ++i)
      std::fprintf(f, i ? ",%lld" : "%lld", d.buckets[i]);
    std::fprintf(f, "]}\n");
  }
  // A short write (full disk) must not replace the previous snapshot.
  const bool written = std::ferror(f) == 0;
  if (std::fclose(f) == 0 && written)
    std::rename(tmp.c_str(), path.c_str());
  else
    std::remove(tmp.c_str());
}

ScopedSpan::ScopedSpan(Session* session, int rank, const char* name,
                       const char* cat, long step)
    : session_(session), rank_(rank), name_(name), cat_(cat), step_(step) {
  if (session_) start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() { stop(); }

double ScopedSpan::stop() {
  if (!session_ || done_) return seconds_;
  done_ = true;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  session_->metrics().timer(rank_, name_).record(seconds_);
  if (session_->tracing()) {
    TraceEvent e;
    e.name = name_;
    e.cat = cat_;
    e.rank = rank_;
    e.tid = this_thread_tid();
    e.step = step_;
    const std::int64_t start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start_.time_since_epoch())
            .count();
    e.ts_us = static_cast<double>(start_ns - session_->origin_ns()) / 1e3;
    e.dur_us = seconds_ * 1e6;
    session_->trace().record(std::move(e));
  }
  return seconds_;
}

}  // namespace telemetry
}  // namespace subsonic
