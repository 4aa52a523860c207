// Telemetry end to end on the process runtime: a supervised lattice
// Boltzmann run with tracing forced on, leaving in the working directory
//
//   block_<b>.epoch_<e>.dump final state of each block (one per rank
//                            unless blocks > 0): the run's last epoch
//   MANIFEST                 the commit record naming that epoch e
//   rank_<r>.metrics.jsonl   per-rank snapshot of counters / gauges /
//                            phase timers / histograms
//   rank_<r>.trace.json      per-rank Chrome trace
//   trace.json               merged trace (load in a Chrome-trace viewer:
//                            one track per rank, spans per phase)
//   run_summary.json         measured T_calc / T_com / utilization per
//                            rank next to the paper model's predicted f
//
// Usage: telemetry_demo [workdir] [steps] [dims] [blocks]   (workdir must
// exist; default "." / 24 steps / dims 2 / blocks 0).  dims 2 runs a 2x2
// decomposition, dims 3 a 2x2x1 one — both through the same supervised
// Cohort pipeline.  blocks > 0 over-decomposes each rank's subregion
// into blocks of about that side; 0 runs one block per rank.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/subsonic.hpp"

int main(int argc, char** argv) {
  using namespace subsonic;
  const std::string workdir = argc > 1 ? argv[1] : ".";
  const int steps = argc > 2 ? std::atoi(argv[2]) : 24;
  const int dims = argc > 3 ? std::atoi(argv[3]) : 2;
  const int blocks = argc > 4 ? std::atoi(argv[4]) : 0;
  if (dims != 2 && dims != 3) {
    std::fprintf(stderr, "telemetry_demo: dims must be 2 or 3, got %d\n",
                 dims);
    return 1;
  }

  FluidParams params;
  params.dt = 1.0;
  params.nu = 0.02;
  params.periodic_x = params.periodic_y = true;

  ProcessRunOptions options;
  options.trace = 1;  // force tracing regardless of SUBSONIC_TRACE
  options.checkpoint_interval = 8;
  options.block_side = blocks;

  ProcessRunResult result;
  if (dims == 2) {
    Mask2D mask(Extents2{96, 96}, 1);
    result = run_supervised<2>(mask, params, Method::kLatticeBoltzmann,
                               GridShape{2, 2, 1}, steps, workdir, options);
  } else {
    params.periodic_z = true;
    Mask3D mask(Extents3{32, 32, 16}, 1);
    result = run_supervised<3>(mask, params, Method::kLatticeBoltzmann,
                               GridShape{2, 2, 1}, steps, workdir, options);
  }

  std::printf("ran %d processes to step %ld (%d restart(s))\n",
              result.processes, result.final_step, result.restarts);
  for (const telemetry::RankMetrics& rm : result.rank_metrics)
    std::printf("  rank %d: T_calc %.4fs  T_com %.4fs  g %.3f\n", rm.rank,
                rm.t_calc(), rm.t_com(), rm.utilization());
  std::printf("summary: %s\ntrace:   %s/trace.json\n",
              result.summary_path.c_str(), workdir.c_str());
  return 0;
}
