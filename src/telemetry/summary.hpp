// Aggregation: turn per-rank metrics (live registries or the JSONL
// snapshots ranks publish in the process runtime) into measured T_calc /
// T_com / utilization, and put the paper's predicted efficiency (eqs.
// 17-21) next to the measured f (eq. 12).
//
// The prediction deliberately does NOT derive U_calc / U_com from the
// measured times — that would make predicted f identical to measured f by
// algebra.  Instead it keeps the paper's calibration (U_calc / V_com =
// 2/3 for the cluster in section 9) and feeds it measured geometry: N
// from the decomposition, m recovered from the transport byte counters.
// Agreement between the two columns then genuinely validates the model.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/metrics.hpp"

namespace subsonic {
namespace telemetry {

/// Everything one rank reported, in aggregate form.  Built either from a
/// live MetricsRegistry (threaded drivers) or parsed back from the
/// rank_<r>.metrics.jsonl snapshot the rank published (process runtime).
struct RankMetrics {
  struct GaugeValue {
    double value = 0;
    double max = 0;
  };

  int rank = -1;
  std::map<std::string, long long> counters;
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, TimerStats> timers;
  std::map<std::string, HistogramData> histograms;
  /// True when this rank's telemetry includes a killed child's last
  /// periodic snapshot rather than the one it publishes on its way out:
  /// the numbers are a truthful prefix of the rank's work, not the whole.
  bool partial = false;

  /// Sum of total_s over every timer whose name starts with `prefix`.
  double timer_total(std::string_view prefix) const;
  /// Measured T_calc: every "compute." phase.
  double t_calc() const { return timer_total("compute."); }
  /// Measured T_com: every driver-level "comm." phase.  Transport-internal
  /// waits live under "transport." and are excluded — they overlap the
  /// comm spans and would double-count.
  double t_com() const { return timer_total("comm."); }
  /// g = T_calc / (T_calc + T_com); 0 for a rank that did no work (an
  /// idle rank is not a perfectly utilized rank).
  double utilization() const;

  long long counter_or(std::string_view name, long long fallback = 0) const;
};

/// Snapshot one rank out of a live registry.
RankMetrics collect_rank(const MetricsRegistry& registry, int rank);

/// Parse a metrics snapshot written by Session::flush_metrics_delta: each
/// line is one row, folded in with merge_metrics (so a repeated row adds
/// on).  A line is skipped when it does not parse (a torn line must not
/// poison the aggregate), when a number is not finite or does not fit its
/// field (a count outside [0, LLONG_MAX], a rank outside [-1, INT_MAX]),
/// or when folding it would overflow a count.
std::vector<RankMetrics> read_metrics_jsonl(const std::string& path);

/// Accumulates `src` into `dst` (counters add; timers merge count/total/
/// min/max; gauges keep the newest value and the running max).  Returns
/// false, leaving `dst` unchanged, when a count would overflow.
bool merge_metrics(RankMetrics& dst, const RankMetrics& src);

/// Geometry fed to the paper's model alongside the measurements.
struct RunModelInputs {
  int dims = 2;
  /// Interior (owned) nodes per rank, N in the model.
  double nodes_per_rank = 0;
  int processes = 1;
  /// The paper's cluster calibration (section 9): U_calc / V_com = 2/3.
  double ucalc_over_vcom = 2.0 / 3.0;
  /// Doubles shipped per boundary node per step (schedule.hpp); used to
  /// recover the boundary-width factor m from the byte counters.
  double comm_doubles_per_node = 3.0;
  /// Per-rank work weights, parallel to the RankMetrics vector fed to
  /// summarize_run (typically each rank's fluid-cell count).  Weighted
  /// means keep a rank owning a sliver of fluid from dragging the
  /// utilization figure as much as a fully loaded rank.  Empty = equal.
  std::vector<double> rank_weights;
};

/// p50/p95/p99 pulled out of one histogram for the summary tables.
struct Percentiles {
  long long count = 0;
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
};

/// Extract summary percentiles from a histogram snapshot.
Percentiles percentiles_of(const HistogramData& h);

struct RankSummary {
  int rank = -1;
  long long steps = 0;
  double t_calc = 0;
  double t_com = 0;
  double utilization = 0;
  long long msgs_sent = 0;
  long long doubles_sent = 0;
  /// Telemetry folded from a killed rank's last periodic snapshot (the
  /// totals cover only the published prefix of its work).
  bool partial = false;
  /// Per-step wall / per-exchange latency percentiles ("step.wall" and
  /// "comm.exchange" histograms); zero counts when the rank predates
  /// histogram instrumentation.
  Percentiles step_wall;
  Percentiles comm_exchange;
};

/// One dynamic load-balance event of the over-decomposed runtime.
struct RebalanceRecord {
  long step = 0;          ///< step at which the new owner map took effect
  int moved_blocks = 0;   ///< blocks that changed rank
  double imbalance_before = 0;  ///< measured max/mean per-rank T_calc
  double imbalance_after = 0;   ///< predicted max/mean under the new map
};

/// One liveness event of the supervised runtime's watchdog: a hang
/// detection, an escalation step, a survivor rollback, or a surgical
/// restart.  The sequence of records in run_summary.json is the audit
/// trail of every recovery the run performed.
struct LivenessRecord {
  /// "hang_detected" | "exit_detected" | "sigterm" | "sigkill" |
  /// "rollback" | "restart"
  std::string event;
  int rank = -1;
  int generation = 0;     ///< recovery round the event belongs to
  long step = -1;         ///< last step the rank was seen to complete
  double silence_s = 0;   ///< heartbeat silence when detected (detections)
  double deadline_s = 0;  ///< adaptive deadline in force (detections)
  long epoch = -1;        ///< epoch restored from (rollback/restart)
  std::string host;       ///< placement tag of the rank ("" when unknown)
};

/// The whole run: measured means plus the model's predictions.
struct RunSummary {
  std::vector<RankSummary> ranks;
  long long steps = 0;  ///< max over ranks (restarted ranks re-count)
  long long restarts = 0;
  long long blocks = 0;  ///< block count of the run (0: not recorded)
  std::vector<RebalanceRecord> rebalances;
  std::vector<LivenessRecord> liveness;
  double t_calc_mean = 0;  ///< mean over non-idle ranks
  double t_com_mean = 0;
  /// Measured f = (1 + T_com/T_calc)^-1 on the means (eq. 12); 0 when no
  /// rank computed anything.
  double measured_f = 0;
  double utilization_mean = 0;  ///< mean g over non-idle ranks
  /// Boundary-width factor m recovered from doubles_sent; 0 if unknown.
  double m_factor = 0;
  /// Model predictions with the paper calibration; 0 when m is unknown.
  double predicted_f_dedicated = 0;
  double predicted_f_shared_bus = 0;
};

/// One rank's row: run_summary.json and the supervisor's live /status
/// view both compute per-rank numbers here.
RankSummary summarize_rank(const RankMetrics& rm);

RunSummary summarize_run(const std::vector<RankMetrics>& ranks,
                         const RunModelInputs& model, long long restarts = 0);

std::string run_summary_json(const RunSummary& summary);
void write_run_summary(const RunSummary& summary, const std::string& path);

/// Merge per-rank Chrome traces into one loadable file.  Works textually:
/// each input ends with its traceEvents array (trace.cpp guarantees the
/// layout), so the events splice together without a JSON parser.
/// Unreadable inputs are skipped.
void merge_chrome_traces(const std::vector<std::string>& paths,
                         const std::string& out_path);

}  // namespace telemetry
}  // namespace subsonic
