#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace e2e {

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(mono_ns() - t0_ns) / 1e9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tracer::Tracer() : origin_ns_(mono_ns()) {}

int Tracer::open(const std::string& layer, const std::string& name) {
  SpanRecord s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  s.layer = layer;
  s.name = name;
  s.start_ns = mono_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = mono_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans_) {
    auto& iv = kids[static_cast<std::size_t>(s.id)];
    std::sort(iv.begin(), iv.end());
    // Union of the child intervals, clipped to the span.
    std::int64_t covered = 0;
    std::int64_t cur0 = 0, cur1 = -1;
    for (const auto& [a0, a1] : iv) {
      const std::int64_t b0 = std::max(a0, s.start_ns);
      const std::int64_t b1 = std::min(a1, s.end_ns);
      if (b1 <= b0) continue;
      if (b0 > cur1) {
        if (cur1 > cur0) covered += cur1 - cur0;
        cur0 = b0;
        cur1 = b1;
      } else {
        cur1 = std::max(cur1, b1);
      }
    }
    if (cur1 > cur0) covered += cur1 - cur0;
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return out;
}

namespace {

constexpr int kBenchPid = 1000;

// Program trace events carry "ts" relative to the supervisor's session
// origin, which the supervisor creates at the start of the call; shifting
// by the call's start places them on the benchmark's timeline (the error
// is the supervisor's set-up before its session exists).
std::string shift_events(const std::string& json, double offset_us) {
  const std::string open = "\"traceEvents\":[";
  const std::size_t begin = json.find(open);
  const std::size_t end = json.rfind(']');
  if (begin == std::string::npos || end == std::string::npos ||
      end < begin + open.size())
    return {};
  const std::string body = json.substr(begin + open.size(),
                                       end - begin - open.size());
  std::string out;
  out.reserve(body.size() + body.size() / 8);
  const std::string key = "\"ts\":";
  std::size_t pos = 0;
  for (;;) {
    const std::size_t k = body.find(key, pos);
    if (k == std::string::npos) {
      out.append(body, pos, std::string::npos);
      break;
    }
    out.append(body, pos, k + key.size() - pos);
    char* stop = nullptr;
    const double ts = std::strtod(body.c_str() + k + key.size(), &stop);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.3f", ts + offset_us);
    out += buf;
    pos = static_cast<std::size_t>(stop - body.c_str());
  }
  // Trim surrounding whitespace so the splice stays a clean list.
  const std::size_t a = out.find_first_not_of(" \n\r\t");
  const std::size_t b = out.find_last_not_of(" \n\r\t");
  return a == std::string::npos ? std::string() : out.substr(a, b - a + 1);
}

}  // namespace

std::string Tracer::chrome_json(
    const std::vector<ProgramTrace>& program) const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kBenchPid
     << ",\"args\":{\"name\":\"e2ebench\"}}";
  char buf[256];
  for (const SpanRecord& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":0,"
                  "\"args\":{\"id\":%d,\"parent\":%d,\"run\":%d}}",
                  s.name.c_str(), s.layer.c_str(),
                  static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, kBenchPid,
                  s.id, s.parent, s.run);
    os << buf;
  }
  for (const ProgramTrace& p : program) {
    const std::string events = shift_events(
        p.json, static_cast<double>(p.call_start_ns - origin_ns_) / 1e3);
    if (!events.empty()) os << ",\n" << events;
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace e2e
