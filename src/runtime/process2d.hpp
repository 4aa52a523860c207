// Compatibility header: the 2D entry points of the supervised process
// runtime.  The implementation is the dimension-generic run_supervised
// template (supervisor.hpp), which also defines ProcessRunOptions,
// ProcessRunResult, RankFailure and ProcessRunError.
#pragma once

#include <string>

#include "src/geometry/mask.hpp"
#include "src/runtime/supervisor.hpp"

namespace subsonic {

/// Forks one child per active subregion of the (jx x jy) decomposition of
/// `mask`, runs `steps` integration steps with boundary exchange over real
/// TCP sockets, and writes "block_<r>.dump" per subregion into `workdir`
/// (which must exist; one block per rank unless options.block_side says
/// otherwise).  See run_supervised for the full contract.
ProcessRunResult run_multiprocess2d(const Mask2D& mask,
                                    const FluidParams& params, Method method,
                                    int jx, int jy, int steps,
                                    const std::string& workdir,
                                    const ProcessRunOptions& options);

/// Convenience overload with default supervision (kept for existing
/// callers): overlap scheduling, env-driven faults, default restart
/// budget, comm deadlines and heartbeat-watchdog policy.
ProcessRunResult run_multiprocess2d(const Mask2D& mask,
                                    const FluidParams& params, Method method,
                                    int jx, int jy, int steps,
                                    const std::string& workdir,
                                    Scheduling sched = Scheduling::kOverlap,
                                    int threads = 0);

}  // namespace subsonic
