// The supervisor's live introspection state: a thread-safe board the
// supervision loop feeds (metrics frames off the heartbeat pipes,
// liveness events, rebalances, harvests) and the status endpoint reads.
// The board renders three documents:
//
//   /healthz  ->  "ok\n" (the supervisor process is up and serving)
//   /status   ->  JSON: run info, per-rank live view (step, T_calc,
//                 T_com, utilization, step-wall and exchange
//                 percentiles), the block->rank owner map, and bounded
//                 tails of the liveness + rebalance audit trails
//   /metrics  ->  Prometheus text exposition of the full per-rank
//                 registries, rebuilt at scrape time from the harvested
//                 prefixes plus each rank's delta stream on disk (the
//                 children flush every metrics_flush_interval steps)
//
// Everything here is read-mostly bookkeeping behind one mutex; nothing
// touches simulation state, so serving (or not serving) the endpoint
// leaves the physics bitwise identical.
#pragma once

#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/runtime/liveness.hpp"
#include "src/telemetry/summary.hpp"

namespace subsonic {

namespace telemetry {
class Session;
}

namespace liveness {

class StatusBoard {
 public:
  struct Config {
    std::string workdir;
    std::vector<int> ranks;          ///< active ranks, ascending
    std::vector<double> fluid_cells; ///< parallel to ranks (0 = unknown)
    std::vector<std::string> hosts;  ///< placement tags, parallel to ranks
    std::string launcher;            ///< "fork" | "exec" ("" = unknown)
    long start_step = 0;
    long target_step = 0;
    int dims = 2;
    long blocks = 0;                 ///< block count of the run
    telemetry::Session* supervisor = nullptr;  ///< rank -1 self-metrics
  };

  void configure(Config cfg);

  // Feeders, called from the supervision thread.
  void on_frame(const MetricsFrame& frame);
  void on_liveness(const telemetry::LivenessRecord& record);
  void on_rebalance(const telemetry::RebalanceRecord& record);
  void on_harvest(int rank, const telemetry::RankMetrics& harvested);
  void set_owner_map(std::vector<int> owner);
  void set_done(bool done);

  /// HTTP dispatch: fills body/content_type for the routes above and
  /// returns true; false = unknown path (the server answers 404).
  bool handle(const std::string& path, std::string* body,
              std::string* content_type) const;

  std::string status_json() const;
  std::string metrics_text() const;

 private:
  struct RankLive {
    bool has_frame = false;
    MetricsFrame frame;
    int generation = 0;
    std::string state = "starting";  ///< starting|running|hung|down|done
    std::string last_event;
  };

  mutable std::mutex mutex_;
  Config cfg_;
  bool done_ = false;
  std::map<int, RankLive> live_;
  std::map<int, telemetry::RankMetrics> harvested_;
  std::vector<int> owner_;
  std::deque<telemetry::LivenessRecord> liveness_tail_;
  std::deque<telemetry::RebalanceRecord> rebalance_tail_;
};

}  // namespace liveness
}  // namespace subsonic
