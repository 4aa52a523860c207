// Section 8's f = g identity, measured on the *real* threaded runtime:
// per-worker processor utilization g = T_calc / (T_calc + T_com) as the
// subregion size varies.  On a machine with fewer cores than workers the
// exchange time also absorbs scheduler wait, so absolute numbers are a
// lower bound; the monotone trend — larger subregions, higher g — is the
// paper's coarse-graining story (section 3).
//
// The timings come from the driver's telemetry registry (the same
// "compute.*" / "comm.*" phase timers the process runtime streams to
// disk), not from an ad-hoc stopwatch.
#include <cstdio>

#include "src/core/subsonic.hpp"

int main() {
  using namespace subsonic;

  std::printf("Measured worker utilization g on the threaded runtime "
              "(LB 2D, (2x2))\n\n");
  std::printf("%-7s %-14s %-12s %s\n", "side", "compute_s", "comm_s",
              "g = Tcalc/(Tcalc+Tcom)");
  for (int side : {24, 48, 96, 192}) {
    Mask2D mask(Extents2{2 * side, 2 * side}, 1);
    FluidParams p;
    p.dt = 1.0;
    p.periodic_x = p.periodic_y = true;
    BlockedDriver<2> drv(mask, p, Method::kLatticeBoltzmann,
                         GridShape{2, 2, 1}, 0);
    drv.run(40);
    double compute = 0, comm = 0;
    for (int r = 0; r < 4; ++r) {
      const telemetry::RankMetrics m =
          telemetry::collect_rank(drv.telemetry().metrics(), r);
      compute += m.t_calc();
      comm += m.t_com();
    }
    std::printf("%-7d %-14.4f %-12.4f %.3f\n", side, compute, comm,
                compute / (compute + comm));
  }
  std::printf("\npaper (section 3): coarser grains spend a smaller "
              "fraction of their time\ncommunicating; (section 8): for "
              "fully parallel work, f = g.\n");
  return 0;
}
