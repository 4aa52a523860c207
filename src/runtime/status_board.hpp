// The supervisor's view of a run: a thread-safe board the supervision
// loop feeds (liveness events, rebalances, and the fold of each rank's
// metrics) and the status endpoint reads.  A rank's numbers reach it one
// way: the snapshot its child replaces atomically in
// rank_<r>.metrics.jsonl (telemetry.hpp).  When a child dies, and at a
// segment boundary, the board folds that snapshot into the rank's running
// totals and removes the file; its view of a rank is those totals plus
// the current snapshot.  One view feeds run_summary.json,
// ProcessRunResult::rank_metrics, /status and /metrics, and fold and view
// both hold the board's mutex, so every reader counts each snapshot
// exactly once.  The board renders three documents:
//
//   /healthz  ->  "ok\n" (the supervisor process is up and serving)
//   /status   ->  JSON: run info, per-rank live view (step, T_calc,
//                 T_com, utilization, step-wall and exchange
//                 percentiles), the block->rank owner map, and bounded
//                 tails of the liveness + rebalance audit trails
//   /metrics  ->  Prometheus text exposition of every rank's view and
//                 the supervisor's own registry
//
// Nothing here touches simulation state, so serving (or not serving) the
// endpoint leaves the physics bitwise identical.
#pragma once

#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

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
  void on_liveness(const telemetry::LivenessRecord& record);
  void on_rebalance(const telemetry::RebalanceRecord& record);
  void set_owner_map(std::vector<int> owner);
  void set_done(bool done);

  /// Folds rank's current snapshot into its running totals and removes
  /// the file, with any "<file>.tmp" a child killed mid-write left.  Call
  /// it once the rank's child has exited: on a death (`partial` when the
  /// child did not exit through its publication, which tags a snapshot
  /// that holds only a prefix of its work) and at a segment boundary.
  /// Returns the snapshot it folded (empty when there was none).
  telemetry::RankMetrics fold(int rank, bool partial);
  /// The rank's folded totals plus its current snapshot.
  telemetry::RankMetrics view(int rank) const;

  /// HTTP dispatch: fills body/content_type for the routes above and
  /// returns true; false = unknown path (the server answers 404).
  bool handle(const std::string& path, std::string* body,
              std::string* content_type) const;

  std::string status_json() const;
  std::string metrics_text() const;

 private:
  struct RankLive {
    int generation = 0;
    std::string state = "starting";  ///< starting|running|hung|down|done
    std::string last_event;
  };

  telemetry::RankMetrics view_locked(int rank) const;

  mutable std::mutex mutex_;
  Config cfg_;
  bool done_ = false;
  std::map<int, RankLive> live_;
  std::map<int, telemetry::RankMetrics> folded_;
  std::vector<int> owner_;
  std::deque<telemetry::LivenessRecord> liveness_tail_;
  std::deque<telemetry::RebalanceRecord> rebalance_tail_;
};

}  // namespace liveness
}  // namespace subsonic
