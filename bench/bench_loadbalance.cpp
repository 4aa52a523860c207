// Measures what telemetry-driven dynamic load balancing buys on a cluster
// with one slow host.  Three arms, same 96x96 LB closed box over a 2x2
// rank grid decomposed into 16x16 blocks (36 blocks, 9 per rank at the
// static seeding):
//
//   static          no fault, rebalancing off — the balanced baseline
//   static_slow     rank 0 fault-injected to 3x its natural step cost
//                   (slow:permille=2000), rebalancing off — the paper's
//                   "one busy workstation paces the whole cluster" case
//   rebalance_slow  same fault, rebalance_interval=12 — the supervisor
//                   reads the per-block compute timers at each segment
//                   boundary and moves blocks off the slow rank
//
// The figure of merit is critical-path throughput: steps x fluid cells /
// max_r T_calc(r), since every step is paced by the slowest rank.  The
// recovery factor (rebalance_slow over static_slow) is the committed
// claim: dynamic rebalancing must recover at least 1.5x of the throughput
// the slow host destroyed.  Results are printed as a table and written as
// JSON (argv[1], default BENCH_loadbalance.json) so the measurement can
// be committed with the code.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/subsonic.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/summary.hpp"
#include "src/util/provenance.hpp"

namespace {

using namespace subsonic;

struct Arm {
  const char* name;
  const char* faults;       // "" = no fault injection
  int rebalance_interval;   // 0 = static assignment
};

struct Result {
  std::string name;
  double max_t_calc_s = 0;   // critical path: slowest rank's compute time
  double mean_t_calc_s = 0;
  double throughput = 0;     // steps * fluid cells / max_t_calc_s
  double imbalance = 0;      // max/mean per-rank T_calc over the run
  int rebalances = 0;
  int moved_blocks = 0;
  int rank0_blocks_final = 0;
  // Per-step wall-time percentiles, folded over every rank's step.wall
  // histogram (ProcessRunResult::rank_metrics).  The tail is the
  // interesting part: a slow host shows up as p95/p99 divergence long
  // before it moves the mean.
  double step_p50_s = 0;
  double step_p95_s = 0;
  double step_p99_s = 0;
};

// Fold every rank's "step.wall" histogram from the run's accumulated
// telemetry into one snapshot and return its percentiles.
telemetry::Percentiles step_wall_percentiles(const ProcessRunResult& r) {
  telemetry::HistogramData agg;
  for (const telemetry::RankMetrics& rm : r.rank_metrics) {
    const auto it = rm.histograms.find("step.wall");
    if (it == rm.histograms.end()) continue;
    for (std::size_t i = 0; i < agg.buckets.size(); ++i)
      agg.buckets[i] += it->second.buckets[i];
    agg.count += it->second.count;
    agg.sum_s += it->second.sum_s;
  }
  return telemetry::percentiles_of(agg);
}

Mask2D closed_box(int nx, int ny) {
  Mask2D mask(Extents2{nx, ny}, 1);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
  mask.fill_box({30, 30, 42, 42}, NodeType::kWall);  // obstacle
  return mask;
}

Result run_arm(const Arm& arm, const Mask2D& mask, long fluid_cells,
               int steps) {
  const std::string workdir = "/tmp/bench_loadbalance_" + std::string(arm.name)
                              + "_" + std::to_string(::getpid());
  ::mkdir(workdir.c_str(), 0755);

  FluidParams p;
  p.dt = 1.0;
  ProcessRunOptions options;
  options.block_side = 16;
  options.rebalance_interval = arm.rebalance_interval;
  options.rebalance_threshold = 1.3;
  // Pin the fault spec even when empty so an ambient SUBSONIC_FAULTS can
  // never leak into the baseline arms.
  options.faults = arm.faults[0] ? arm.faults : " ";
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, steps, workdir,
      options);

  Result res;
  res.name = arm.name;
  double sum = 0;
  int loaded = 0;
  for (const telemetry::RankMetrics& rm : r.rank_metrics) {
    const double t_calc = rm.t_calc();
    if (t_calc <= 0) continue;
    res.max_t_calc_s = std::max(res.max_t_calc_s, t_calc);
    sum += t_calc;
    ++loaded;
  }
  res.mean_t_calc_s = loaded > 0 ? sum / loaded : 0;
  res.imbalance =
      res.mean_t_calc_s > 0 ? res.max_t_calc_s / res.mean_t_calc_s : 1.0;
  res.throughput = res.max_t_calc_s > 0
                       ? static_cast<double>(steps) * fluid_cells /
                             res.max_t_calc_s
                       : 0;
  res.rebalances = static_cast<int>(r.rebalances.size());
  for (const telemetry::RebalanceRecord& rr : r.rebalances)
    res.moved_blocks += rr.moved_blocks;
  for (int owner : r.block_owner)
    if (owner == 0) ++res.rank0_blocks_final;
  const telemetry::Percentiles pct = step_wall_percentiles(r);
  res.step_p50_s = pct.p50_s;
  res.step_p95_s = pct.p95_s;
  res.step_p99_s = pct.p99_s;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const int side = 96;
  const int steps = 60;
  const Mask2D mask = closed_box(side, side);
  const long fluid_cells = static_cast<long>(
      mask.count_box({0, 0, side, side}, NodeType::kFluid));

  const Arm arms[] = {
      {"static", "", 0},
      {"static_slow", "slow:rank=0,permille=2000", 0},
      {"rebalance_slow", "slow:rank=0,permille=2000", 12},
  };

  std::printf("Load-balance benchmark: %dx%d grid (%ld fluid cells), "
              "2x2 ranks, 16x16 blocks, %d steps\n\n",
              side, side, fluid_cells, steps);
  std::printf("%-16s %-14s %-12s %-14s %-6s %-6s %-13s %-10s %-10s %s\n",
              "arm", "max_Tcalc_s", "imbalance", "cells/s", "rebal",
              "moved", "rank0_blocks", "p50_ms", "p95_ms", "p99_ms");

  std::vector<Result> results;
  for (const Arm& arm : arms) {
    const Result r = run_arm(arm, mask, fluid_cells, steps);
    std::printf("%-16s %-14.4f %-12.3f %-14.0f %-6d %-6d %-13d %-10.3f "
                "%-10.3f %.3f\n",
                r.name.c_str(), r.max_t_calc_s, r.imbalance, r.throughput,
                r.rebalances, r.moved_blocks, r.rank0_blocks_final,
                r.step_p50_s * 1e3, r.step_p95_s * 1e3, r.step_p99_s * 1e3);
    results.push_back(r);
  }

  const double slowdown_factor =
      results[0].throughput > 0 && results[1].throughput > 0
          ? results[0].throughput / results[1].throughput
          : 0;
  const double recovery_factor =
      results[1].throughput > 0
          ? results[2].throughput / results[1].throughput
          : 0;
  std::printf("\nslow host cost the static run %.2fx throughput; "
              "rebalancing recovered %.2fx\n",
              slowdown_factor, recovery_factor);

  const std::string path = argc > 1 ? argv[1] : "BENCH_loadbalance.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"provenance\": %s,\n",
               provenance_json(collect_provenance()).c_str());
  std::fprintf(f,
               "  \"grid\": [%d, %d],\n  \"fluid_cells\": %ld,\n"
               "  \"decomposition\": [2, 2],\n  \"block_side\": 16,\n"
               "  \"steps\": %d,\n"
               "  \"fault\": \"slow:rank=0,permille=2000\",\n"
               "  \"arms\": [\n",
               side, side, fluid_cells, steps);
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"max_t_calc_s\": %.5f, "
                 "\"mean_t_calc_s\": %.5f, \"imbalance\": %.4f,\n"
                 "     \"throughput_cells_per_s\": %.0f, "
                 "\"rebalances\": %d, \"moved_blocks\": %d, "
                 "\"rank0_blocks_final\": %d,\n"
                 "     \"step_wall_p50_s\": %.6f, "
                 "\"step_wall_p95_s\": %.6f, "
                 "\"step_wall_p99_s\": %.6f}%s\n",
                 r.name.c_str(), r.max_t_calc_s, r.mean_t_calc_s,
                 r.imbalance, r.throughput, r.rebalances, r.moved_blocks,
                 r.rank0_blocks_final, r.step_p50_s, r.step_p95_s,
                 r.step_p99_s, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"slowdown_factor\": %.4f,\n"
               "  \"recovery_factor\": %.4f\n}\n",
               slowdown_factor, recovery_factor);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  if (recovery_factor < 1.5) {
    std::fprintf(stderr,
                 "FAIL: recovery factor %.2f below the 1.5x claim\n",
                 recovery_factor);
    return 1;
  }
  return 0;
}
