// The 3D entry points of the supervised process runtime — the paper's
// Figure 10/11 workload (section 7: (J x K x L) decompositions of grids
// from 10^3 to 44^3 per subregion) with the full 2D feature set:
// heartbeat-watchdog supervision with surgical per-rank restart,
// staggered epoch checkpoints, SUBSONIC_FAULTS injection, per-rank
// WorkerStats and run_summary.json (with the liveness audit trail).
// Implemented by the dimension-generic run_supervised template
// (supervisor.hpp).
#pragma once

#include <string>

#include "src/geometry/mask.hpp"
#include "src/runtime/supervisor.hpp"

namespace subsonic {

/// Forks one child per active subregion of the (jx x jy x jz)
/// decomposition of `mask`, runs `steps` integration steps with boundary
/// exchange over real TCP sockets, and writes "block_<r>.dump" per
/// subregion into `workdir` (which must exist; one block per rank unless
/// options.block_side says otherwise).  See run_supervised for the full
/// contract.
ProcessRunResult run_multiprocess3d(const Mask3D& mask,
                                    const FluidParams& params, Method method,
                                    int jx, int jy, int jz, int steps,
                                    const std::string& workdir,
                                    const ProcessRunOptions& options);

/// Convenience overload with default supervision: overlap scheduling,
/// env-driven faults, default restart budget and deadlines.
ProcessRunResult run_multiprocess3d(const Mask3D& mask,
                                    const FluidParams& params, Method method,
                                    int jx, int jy, int jz, int steps,
                                    const std::string& workdir,
                                    Scheduling sched = Scheduling::kOverlap,
                                    int threads = 0);

}  // namespace subsonic
