// Per-layer measurements of the traced run.  "iso" numbers come from warm
// benchmark calls into one layer's public functions on the unit the
// workload computes; "run" numbers are read from the traced supervised
// run's own result (rank_metrics, run_summary.json).  Nothing here adds
// instrumentation to the program.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The per-layer metric names, units and sources ("iso" or "run"), in
/// output order.  Every traced run prints all of them; a metric that does
/// not apply to the workload reads 0 and is marked n/a in the table.
struct LayerMetricDef {
  const char* name;
  const char* unit;
  const char* source;
};
const std::vector<LayerMetricDef>& layer_metric_defs();

/// Everything the run-derived metrics are computed from.
struct TracedRuns {
  CallOutcome traced;      ///< trace on, with the seeded fault if any
  CallOutcome untraced;    ///< same seed and options, trace off
  CallOutcome fault_free;  ///< recovery only: traced, no fault
  double setup_s = 0;
  double serial_mlups = 0;
};

/// Iso measurements, spread over about `budget_s` seconds.
template <int Dim>
std::map<std::string, double> measure_iso(
    const World<Dim>& w, const subsonic::telemetry::RankMetrics& rank_timers,
    const std::string& workroot, double budget_s, Tracer* tracer);

/// Run-derived metrics; `iso` supplies the kernel costs the cohort
/// slowdown compares against.
template <int Dim>
std::map<std::string, double> derive_run_metrics(
    const World<Dim>& w, const TracedRuns& runs,
    const std::map<std::string, double>& iso, Tracer* tracer);

}  // namespace e2e
