#include "src/runtime/status_board.hpp"

#include <cstdio>
#include <sstream>

#include "src/runtime/cohort.hpp"
#include "src/telemetry/prometheus.hpp"
#include "src/telemetry/telemetry.hpp"

namespace subsonic {
namespace liveness {

namespace {

constexpr std::size_t kTailMax = 64;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void append_number(std::ostringstream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

/// The rank's current snapshot (empty before its first publication).
telemetry::RankMetrics read_snapshot(const std::string& workdir, int rank) {
  telemetry::RankMetrics snap;
  snap.rank = rank;
  for (telemetry::RankMetrics& rm :
       telemetry::read_metrics_jsonl(cohort::metrics_path(workdir, rank)))
    if (rm.rank == rank) snap = std::move(rm);
  return snap;
}

}  // namespace

void StatusBoard::configure(Config cfg) {
  std::lock_guard<std::mutex> lock(mutex_);
  cfg_ = std::move(cfg);
  for (int r : cfg_.ranks) live_[r];  // seed every rank as "starting"
}

void StatusBoard::on_liveness(const telemetry::LivenessRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  liveness_tail_.push_back(record);
  if (liveness_tail_.size() > kTailMax) liveness_tail_.pop_front();
  RankLive& rl = live_[record.rank];
  rl.last_event = record.event;
  rl.generation = record.generation;
  if (record.event == "hang_detected")
    rl.state = "hung";
  else if (record.event == "exit_detected")
    rl.state = "down";
  else if (record.event == "restart" || record.event == "rollback")
    rl.state = "running";
}

void StatusBoard::on_rebalance(const telemetry::RebalanceRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  rebalance_tail_.push_back(record);
  if (rebalance_tail_.size() > kTailMax) rebalance_tail_.pop_front();
}

telemetry::RankMetrics StatusBoard::fold(int rank, bool partial) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string path = cohort::metrics_path(cfg_.workdir, rank);
  telemetry::RankMetrics snap = read_snapshot(cfg_.workdir, rank);
  // Any published snapshot carries the steps counter; no snapshot at all
  // leaves nothing to tag.
  if (partial && !snap.counters.empty()) snap.partial = true;
  folded_[rank].rank = rank;
  telemetry::merge_metrics(folded_[rank], snap);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return snap;
}

telemetry::RankMetrics StatusBoard::view(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return view_locked(rank);
}

telemetry::RankMetrics StatusBoard::view_locked(int rank) const {
  telemetry::RankMetrics total;
  total.rank = rank;
  if (const auto it = folded_.find(rank); it != folded_.end())
    total = it->second;
  telemetry::merge_metrics(total, read_snapshot(cfg_.workdir, rank));
  return total;
}

void StatusBoard::set_owner_map(std::vector<int> owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  owner_ = std::move(owner);
}

void StatusBoard::set_done(bool done) {
  std::lock_guard<std::mutex> lock(mutex_);
  done_ = done;
  if (done)
    for (auto& [rank, rl] : live_) rl.state = "done";
}

bool StatusBoard::handle(const std::string& path, std::string* body,
                         std::string* content_type) const {
  if (path == "/healthz") {
    *body = "ok\n";
    *content_type = "text/plain; charset=utf-8";
    return true;
  }
  if (path == "/status") {
    *body = status_json();
    *content_type = "application/json";
    return true;
  }
  if (path == "/metrics") {
    *body = metrics_text();
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  }
  return false;
}

std::string StatusBoard::status_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\n  \"run\": {\"workdir\": \"" << json_escape(cfg_.workdir)
     << "\", \"dims\": " << cfg_.dims
     << ", \"processes\": " << cfg_.ranks.size()
     << ", \"start_step\": " << cfg_.start_step
     << ", \"target_step\": " << cfg_.target_step
     << ", \"blocks\": " << cfg_.blocks
     << ", \"launcher\": \"" << json_escape(cfg_.launcher)
     << "\", \"done\": " << (done_ ? "true" : "false") << "},\n";
  os << "  \"ranks\": [";
  bool first = true;
  for (std::size_t i = 0; i < cfg_.ranks.size(); ++i) {
    const int rank = cfg_.ranks[i];
    const auto it = live_.find(rank);
    if (it == live_.end()) continue;
    const RankLive& rl = it->second;
    const telemetry::RankMetrics rm = view_locked(rank);
    const telemetry::RankSummary rs = telemetry::summarize_rank(rm);
    if (!first) os << ',';
    first = false;
    os << "\n    {\"rank\": " << rank << ", \"state\": \""
       << (rl.state == "starting" && rs.steps > 0 ? "running" : rl.state)
       << "\", \"host\": \""
       << json_escape(i < cfg_.hosts.size() ? cfg_.hosts[i] : "")
       << "\", \"generation\": " << rl.generation;
    os << ", \"fluid_cells\": ";
    append_number(os, i < cfg_.fluid_cells.size() ? cfg_.fluid_cells[i] : 0);
    const auto step = rm.gauges.find("step");
    os << ", \"step\": ";
    append_number(os, step != rm.gauges.end() ? step->second.value : -1);
    os << ", \"steps_done\": " << rs.steps;
    os << ", \"t_calc_s\": ";
    append_number(os, rs.t_calc);
    os << ", \"t_com_s\": ";
    append_number(os, rs.t_com);
    os << ", \"utilization\": ";
    append_number(os, rs.utilization);
    os << ", \"msgs_sent\": " << rs.msgs_sent;
    os << ", \"doubles_sent\": " << rs.doubles_sent;
    os << ", \"step_wall_p50_s\": ";
    append_number(os, rs.step_wall.p50_s);
    os << ", \"step_wall_p95_s\": ";
    append_number(os, rs.step_wall.p95_s);
    os << ", \"step_wall_p99_s\": ";
    append_number(os, rs.step_wall.p99_s);
    os << ", \"comm_p50_s\": ";
    append_number(os, rs.comm_exchange.p50_s);
    os << ", \"comm_p95_s\": ";
    append_number(os, rs.comm_exchange.p95_s);
    os << ", \"comm_p99_s\": ";
    append_number(os, rs.comm_exchange.p99_s);
    os << ", \"last_event\": \"" << json_escape(rl.last_event) << "\"}";
  }
  os << "\n  ],\n";
  os << "  \"block_owner\": [";
  for (std::size_t i = 0; i < owner_.size(); ++i)
    os << (i ? "," : "") << owner_[i];
  os << "],\n";
  os << "  \"liveness\": [";
  for (std::size_t i = 0; i < liveness_tail_.size(); ++i) {
    const telemetry::LivenessRecord& lr = liveness_tail_[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"event\": \"" << json_escape(lr.event)
       << "\", \"rank\": " << lr.rank << ", \"generation\": " << lr.generation
       << ", \"step\": " << lr.step << ", \"silence_s\": ";
    append_number(os, lr.silence_s);
    os << ", \"deadline_s\": ";
    append_number(os, lr.deadline_s);
    os << ", \"epoch\": " << lr.epoch << ", \"host\": \""
       << json_escape(lr.host) << "\"}";
  }
  os << (liveness_tail_.empty() ? "],\n" : "\n  ],\n");
  os << "  \"rebalances\": [";
  for (std::size_t i = 0; i < rebalance_tail_.size(); ++i) {
    const telemetry::RebalanceRecord& rr = rebalance_tail_[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"step\": " << rr.step
       << ", \"moved_blocks\": " << rr.moved_blocks
       << ", \"imbalance_before\": ";
    append_number(os, rr.imbalance_before);
    os << ", \"imbalance_after\": ";
    append_number(os, rr.imbalance_after);
    os << "}";
  }
  os << (rebalance_tail_.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

std::string StatusBoard::metrics_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<telemetry::RankMetrics> rows;
  rows.reserve(cfg_.ranks.size() + 1);
  for (int rank : cfg_.ranks) rows.push_back(view_locked(rank));
  if (cfg_.supervisor)
    rows.push_back(telemetry::collect_rank(cfg_.supervisor->metrics(), -1));
  return telemetry::prometheus_text(rows);
}

}  // namespace liveness
}  // namespace subsonic
