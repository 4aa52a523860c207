#include "src/telemetry/summary.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/perfmodel/efficiency.hpp"
#include "src/util/log.hpp"

namespace subsonic {
namespace telemetry {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

// --- Minimal flat-JSON-object field extraction ----------------------------
// The JSONL lines are written by Session::flush_metrics_delta with a fixed
// shape: one object per line, string values never contain escapes (metric
// names are ASCII identifiers with dots).  That lets a torn or foreign
// line simply fail extraction and be skipped.  The bytes come from another
// process, so every number must also be finite and fit its field: a line
// that does not is skipped too, never converted out of range.

constexpr double kTwo63 = 9223372036854775808.0;  // LLONG_MAX + 1

/// strtod at `cursor`; false unless the number is finite and in [lo, hi).
bool number_at(const char* cursor, double lo, double hi, double* out,
               const char** end) {
  char* stop = nullptr;
  const double v = std::strtod(cursor, &stop);
  if (stop == cursor || !std::isfinite(v) || v < lo || v >= hi) return false;
  *out = v;
  *end = stop;
  return true;
}

bool extract_string(const std::string& line, const char* key,
                    std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const std::size_t begin = pos + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

/// The value of `"key":` when finite and in [lo, hi).
bool extract_number(const std::string& line, const char* key, double* out,
                    double lo = -HUGE_VAL, double hi = HUGE_VAL) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const char* end = nullptr;
  return number_at(line.c_str() + pos + needle.size(), lo, hi, out, &end);
}

/// A count: a whole number in [0, LLONG_MAX].
bool extract_count(const std::string& line, const char* key,
                   long long* out) {
  double v = 0;
  if (!extract_number(line, key, &v, 0, kTwo63)) return false;
  *out = static_cast<long long>(v);
  return true;
}

// Parse "key":[n,n,...] into exactly HistogramData::kBuckets counts.
bool extract_buckets(const std::string& line, const char* key,
                     std::array<long long, HistogramData::kBuckets>* out) {
  const std::string needle = std::string("\"") + key + "\":[";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const char* cursor = line.c_str() + pos + needle.size();
  for (std::size_t i = 0; i < out->size(); ++i) {
    double v = 0;
    if (!number_at(cursor, 0, kTwo63, &v, &cursor)) return false;
    (*out)[i] = static_cast<long long>(v);
    if (*cursor == ',') ++cursor;
  }
  return true;
}

/// One snapshot line as a one-row RankMetrics; false when it does not
/// parse or a number does not fit its field.
bool parse_line(const std::string& line, RankMetrics* out) {
  std::string kind, name;
  double rank = 0;
  if (!extract_string(line, "kind", &kind) ||
      !extract_string(line, "name", &name) ||
      !extract_number(line, "rank", &rank, -1, INT_MAX + 1.0))
    return false;
  out->rank = static_cast<int>(rank);
  if (kind == "counter")
    return extract_count(line, "value", &out->counters[name]);
  if (kind == "gauge") {
    RankMetrics::GaugeValue& g = out->gauges[name];
    return extract_number(line, "value", &g.value) &&
           extract_number(line, "max", &g.max);
  }
  if (kind == "timer") {
    TimerStats& t = out->timers[name];
    return extract_count(line, "count", &t.count) &&
           extract_number(line, "total_s", &t.total_s) &&
           extract_number(line, "min_s", &t.min_s) &&
           extract_number(line, "max_s", &t.max_s);
  }
  if (kind == "hist") {
    HistogramData& h = out->histograms[name];
    return extract_count(line, "count", &h.count) &&
           extract_number(line, "sum_s", &h.sum_s) &&
           extract_buckets(line, "buckets", &h.buckets);
  }
  return false;
}

/// True when adding `b` to `a` leaves the range of long long.
bool sum_overflows(long long a, long long b) {
  long long sum;
  return __builtin_add_overflow(a, b, &sum);
}

/// True when merge_metrics(dst, src) would overflow a count.
bool merge_overflows(const RankMetrics& dst, const RankMetrics& src) {
  for (const auto& [name, value] : src.counters)
    if (sum_overflows(dst.counter_or(name), value)) return true;
  for (const auto& [name, stats] : src.timers) {
    const auto it = dst.timers.find(name);
    if (it != dst.timers.end() && sum_overflows(it->second.count, stats.count))
      return true;
  }
  for (const auto& [name, h] : src.histograms) {
    const auto it = dst.histograms.find(name);
    if (it == dst.histograms.end()) continue;
    if (sum_overflows(it->second.count, h.count)) return true;
    for (std::size_t i = 0; i < HistogramData::kBuckets; ++i)
      if (sum_overflows(it->second.buckets[i], h.buckets[i])) return true;
  }
  return false;
}

}  // namespace

double RankMetrics::timer_total(std::string_view prefix) const {
  double total = 0;
  for (const auto& [name, stats] : timers)
    if (starts_with(name, prefix)) total += stats.total_s;
  return total;
}

double RankMetrics::utilization() const {
  const double calc = t_calc();
  const double total = calc + t_com();
  return total > 0 ? calc / total : 0.0;
}

long long RankMetrics::counter_or(std::string_view name,
                                  long long fallback) const {
  const auto it = counters.find(std::string(name));
  return it != counters.end() ? it->second : fallback;
}

RankMetrics collect_rank(const MetricsRegistry& registry, int rank) {
  RankMetrics out;
  out.rank = rank;
  for (const auto& row : registry.counters())
    if (row.rank == rank) out.counters[row.name] = row.value;
  for (const auto& row : registry.gauges())
    if (row.rank == rank)
      out.gauges[row.name] = RankMetrics::GaugeValue{row.value, row.max};
  for (const auto& row : registry.timers())
    if (row.rank == rank) out.timers[row.name] = row.stats;
  for (const auto& row : registry.histograms())
    if (row.rank == rank) out.histograms[row.name] = row.data;
  return out;
}

std::vector<RankMetrics> read_metrics_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::map<int, RankMetrics> by_rank;
  std::string line;
  while (std::getline(in, line)) {
    RankMetrics row;
    if (parse_line(line, &row)) merge_metrics(by_rank[row.rank], row);
  }
  std::vector<RankMetrics> out;
  out.reserve(by_rank.size());
  for (auto& [rank, rm] : by_rank) out.push_back(std::move(rm));
  return out;
}

bool merge_metrics(RankMetrics& dst, const RankMetrics& src) {
  if (merge_overflows(dst, src)) return false;
  if (dst.rank < 0) dst.rank = src.rank;
  dst.partial = dst.partial || src.partial;
  for (const auto& [name, value] : src.counters) dst.counters[name] += value;
  for (const auto& [name, g] : src.gauges) {
    auto& d = dst.gauges[name];
    d.value = g.value;  // newest wins
    d.max = std::max(d.max, g.max);
  }
  for (const auto& [name, stats] : src.timers) {
    auto it = dst.timers.find(name);
    if (it == dst.timers.end()) {
      dst.timers[name] = stats;
      continue;
    }
    TimerStats& d = it->second;
    d.count += stats.count;
    d.total_s += stats.total_s;
    d.min_s = std::min(d.min_s, stats.min_s);
    d.max_s = std::max(d.max_s, stats.max_s);
  }
  for (const auto& [name, h] : src.histograms) {
    auto& d = dst.histograms[name];
    for (std::size_t i = 0; i < HistogramData::kBuckets; ++i)
      d.buckets[i] += h.buckets[i];
    d.count += h.count;
    d.sum_s += h.sum_s;
  }
  return true;
}

Percentiles percentiles_of(const HistogramData& h) {
  Percentiles p;
  p.count = h.count;
  if (h.count > 0) {
    p.p50_s = h.quantile_s(0.50);
    p.p95_s = h.quantile_s(0.95);
    p.p99_s = h.quantile_s(0.99);
  }
  return p;
}

RankSummary summarize_rank(const RankMetrics& rm) {
  RankSummary rs;
  rs.rank = rm.rank;
  rs.steps = rm.counter_or("steps");
  rs.t_calc = rm.t_calc();
  rs.t_com = rm.t_com();
  rs.utilization = rm.utilization();
  rs.msgs_sent = rm.counter_or("transport.msgs_sent");
  rs.doubles_sent = rm.counter_or("transport.doubles_sent");
  rs.partial = rm.partial;
  if (const auto it = rm.histograms.find("step.wall");
      it != rm.histograms.end())
    rs.step_wall = percentiles_of(it->second);
  if (const auto it = rm.histograms.find("comm.exchange");
      it != rm.histograms.end())
    rs.comm_exchange = percentiles_of(it->second);
  return rs;
}

RunSummary summarize_run(const std::vector<RankMetrics>& ranks,
                         const RunModelInputs& model, long long restarts) {
  RunSummary summary;
  summary.restarts = restarts;

  int active = 0;
  double doubles_sent_sum = 0;
  long long active_steps_sum = 0;
  int active_with_steps = 0;
  double weight_sum = 0;
  double utilization_weighted = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    // Utilization is averaged weighted by each rank's share of the work
    // (fluid cells): a rank owning a sliver of the domain must not count
    // as much as a fully loaded one.
    const double weight =
        i < model.rank_weights.size() && model.rank_weights[i] > 0
            ? model.rank_weights[i]
            : 1.0;
    const RankSummary rs = summarize_rank(ranks[i]);
    summary.steps = std::max(summary.steps, rs.steps);
    if (rs.t_calc + rs.t_com > 0) {
      ++active;
      summary.t_calc_mean += rs.t_calc;
      summary.t_com_mean += rs.t_com;
      weight_sum += weight;
      utilization_weighted += weight * rs.utilization;
      if (rs.steps > 0 && rs.doubles_sent > 0) {
        doubles_sent_sum += static_cast<double>(rs.doubles_sent);
        active_steps_sum += rs.steps;
        ++active_with_steps;
      }
    }
    summary.ranks.push_back(rs);
  }
  if (active > 0) {
    summary.t_calc_mean /= active;
    summary.t_com_mean /= active;
    if (weight_sum > 0)
      summary.utilization_mean = utilization_weighted / weight_sum;
    if (summary.t_calc_mean > 0)
      summary.measured_f =
          efficiency_from_times(summary.t_calc_mean, summary.t_com_mean);
  }

  // Recover m from the byte counters: each rank ships
  // m * N^(1-1/d) * comm_doubles_per_node doubles per step (eqs. 14-16).
  if (active_with_steps > 0 && model.nodes_per_rank > 0 &&
      model.comm_doubles_per_node > 0) {
    const double per_rank_per_step = doubles_sent_sum /
                                     static_cast<double>(active_steps_sum);
    const double surface =
        std::pow(model.nodes_per_rank,
                 model.dims == 2 ? 0.5 : 2.0 / 3.0);
    summary.m_factor =
        per_rank_per_step / (surface * model.comm_doubles_per_node);
  }

  if (summary.m_factor > 0 && model.nodes_per_rank > 0) {
    summary.predicted_f_dedicated =
        efficiency_dedicated(model.nodes_per_rank, model.dims,
                             summary.m_factor, model.ucalc_over_vcom);
    summary.predicted_f_shared_bus =
        model.dims == 2
            ? efficiency_shared_bus_2d(model.nodes_per_rank, summary.m_factor,
                                       model.processes,
                                       model.ucalc_over_vcom)
            : efficiency_shared_bus_3d(model.nodes_per_rank, summary.m_factor,
                                       model.processes,
                                       model.ucalc_over_vcom);
  }
  return summary;
}

std::string run_summary_json(const RunSummary& summary) {
  std::ostringstream os;
  char buf[512];
  os << "{\n  \"ranks\": [";
  for (std::size_t i = 0; i < summary.ranks.size(); ++i) {
    const RankSummary& rs = summary.ranks[i];
    if (i) os << ',';
    std::snprintf(buf, sizeof buf,
                  "\n    {\"rank\":%d,\"steps\":%lld,\"t_calc_s\":%.6f,"
                  "\"t_com_s\":%.6f,\"utilization\":%.6f,"
                  "\"msgs_sent\":%lld,\"doubles_sent\":%lld",
                  rs.rank, rs.steps, rs.t_calc, rs.t_com, rs.utilization,
                  rs.msgs_sent, rs.doubles_sent);
    os << buf;
    if (rs.partial) os << ",\"partial\":true";
    if (rs.step_wall.count > 0) {
      std::snprintf(buf, sizeof buf,
                    ",\"step_wall_p50_s\":%.6f,\"step_wall_p95_s\":%.6f,"
                    "\"step_wall_p99_s\":%.6f",
                    rs.step_wall.p50_s, rs.step_wall.p95_s,
                    rs.step_wall.p99_s);
      os << buf;
    }
    if (rs.comm_exchange.count > 0) {
      std::snprintf(buf, sizeof buf,
                    ",\"comm_exchange_p50_s\":%.6f,"
                    "\"comm_exchange_p95_s\":%.6f,"
                    "\"comm_exchange_p99_s\":%.6f",
                    rs.comm_exchange.p50_s, rs.comm_exchange.p95_s,
                    rs.comm_exchange.p99_s);
      os << buf;
    }
    os << '}';
  }
  os << "\n  ],\n";
  if (summary.blocks > 0 || !summary.rebalances.empty()) {
    os << "  \"blocks\": " << summary.blocks << ",\n  \"rebalances\": [";
    for (std::size_t i = 0; i < summary.rebalances.size(); ++i) {
      const RebalanceRecord& rr = summary.rebalances[i];
      if (i) os << ',';
      std::snprintf(buf, sizeof buf,
                    "\n    {\"step\":%ld,\"moved_blocks\":%d,"
                    "\"imbalance_before\":%.6f,\"imbalance_after\":%.6f}",
                    rr.step, rr.moved_blocks, rr.imbalance_before,
                    rr.imbalance_after);
      os << buf;
    }
    os << (summary.rebalances.empty() ? "],\n" : "\n  ],\n");
  }
  if (!summary.liveness.empty()) {
    os << "  \"liveness\": [";
    for (std::size_t i = 0; i < summary.liveness.size(); ++i) {
      const LivenessRecord& lr = summary.liveness[i];
      if (i) os << ',';
      std::snprintf(buf, sizeof buf,
                    "\n    {\"event\":\"%s\",\"rank\":%d,\"generation\":%d,"
                    "\"step\":%ld,\"silence_s\":%.6f,\"deadline_s\":%.6f,"
                    "\"epoch\":%ld,\"host\":\"%s\"}",
                    lr.event.c_str(), lr.rank, lr.generation, lr.step,
                    lr.silence_s, lr.deadline_s, lr.epoch, lr.host.c_str());
      os << buf;
    }
    os << "\n  ],\n";
  }
  std::snprintf(buf, sizeof buf,
                "  \"steps\": %lld,\n  \"restarts\": %lld,\n"
                "  \"t_calc_mean_s\": %.6f,\n  \"t_com_mean_s\": %.6f,\n"
                "  \"measured_f\": %.6f,\n  \"utilization_mean\": %.6f,\n",
                summary.steps, summary.restarts, summary.t_calc_mean,
                summary.t_com_mean, summary.measured_f,
                summary.utilization_mean);
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  \"m_factor\": %.6f,\n"
                "  \"predicted_f_dedicated\": %.6f,\n"
                "  \"predicted_f_shared_bus\": %.6f\n}\n",
                summary.m_factor, summary.predicted_f_dedicated,
                summary.predicted_f_shared_bus);
  os << buf;
  return os.str();
}

void write_run_summary(const RunSummary& summary, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write run summary " + path);
  const std::string json = run_summary_json(summary);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

void merge_chrome_traces(const std::vector<std::string>& paths,
                         const std::string& out_path) {
  std::string merged = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool any = false;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      // A killed or restarted rank never wrote its trace; the merged
      // timeline must still ship with everyone else's events.
      SUBSONIC_LOG(kWarn) << "merge_chrome_traces: skipping missing trace "
                          << path;
      continue;
    }
    std::ostringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    // trace.cpp writes traceEvents as the last member, so the events are
    // exactly the text between the array's '[' and the final ']'.
    const std::size_t marker = text.find("\"traceEvents\":[");
    const std::size_t close = text.rfind(']');
    if (marker == std::string::npos || close == std::string::npos) {
      SUBSONIC_LOG(kWarn) << "merge_chrome_traces: skipping truncated trace "
                          << path;
      continue;
    }
    const std::size_t begin = marker + std::string("\"traceEvents\":[").size();
    if (close <= begin) {
      SUBSONIC_LOG(kWarn) << "merge_chrome_traces: skipping truncated trace "
                          << path;
      continue;
    }
    std::string events = text.substr(begin, close - begin);
    // Trim whitespace so an empty array contributes nothing.
    const std::size_t first = events.find_first_not_of(" \n\r\t");
    if (first == std::string::npos) continue;
    events = events.substr(first,
                           events.find_last_not_of(" \n\r\t") - first + 1);
    if (events.empty()) continue;
    if (any) merged += ',';
    merged += '\n';
    merged += events;
    any = true;
  }
  merged += "\n]}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write merged trace " + out_path);
  std::fwrite(merged.data(), 1, merged.size(), f);
  std::fclose(f);
}

}  // namespace telemetry
}  // namespace subsonic
