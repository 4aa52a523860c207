// 3D Hagen-Poiseuille flow through a rectangular duct — the paper's own
// 3D test problem (section 7), run with the (P x 1 x 1) pipeline
// decomposition of Figure 9.  Prints the developing velocity profile and
// what the shared-bus Ethernet of 1994 would have made of this run.
#include <cstdio>

#include "src/core/subsonic.hpp"

int main() {
  using namespace subsonic;

  const int nx = 48, ny = 21, nz = 21;
  const Mask3D mask = build_channel3d(Extents3{nx, ny, nz}, 1);

  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.1;
  p.periodic_x = true;  // streamwise-periodic, body-force driven
  p.force_x = 1e-4;

  // Four subregions along the stream, one thread each.
  BlockedDriver<3> sim(mask, p, Method::kLatticeBoltzmann,
                       GridShape{4, 1, 1}, 0);
  std::printf("duct %dx%dx%d, LB D3Q15, (4x1x1) decomposition\n", nx, ny,
              nz);

  for (int burst = 1; burst <= 4; ++burst) {
    sim.run(400);
    const auto vx = sim.gather(FieldId::kVx);
    std::printf("step %4d: centreline u = %.5f\n", burst * 400,
                vx(nx / 2, ny / 2, nz / 2));
  }

  // The developed cross-section profile along the duct's mid-plane.
  const auto vx = sim.gather(FieldId::kVx);
  std::printf("\ncross-section profile at z = %d (u / u_max):\n", nz / 2);
  const double umax = vx(nx / 2, ny / 2, nz / 2);
  for (int y = 0; y < ny; ++y) {
    std::printf("y=%2d  %6.3f  |", y, vx(nx / 2, y, nz / 2) / umax);
    const int bars = int(40 * vx(nx / 2, y, nz / 2) / umax + 0.5);
    for (int b = 0; b < bars; ++b) std::printf("#");
    std::printf("\n");
  }

  // What this run would have cost on the paper's cluster (Figure 9's
  // message: 3D saturates the shared bus quickly).
  const Decomposition3D d(Extents3{nx, ny, nz}, 4, 1, 1);
  const WorkloadSpec w = make_workload3d(d, Method::kLatticeBoltzmann);
  ClusterSim cluster(ClusterParams{}, ClusterSim::uniform_cluster(4));
  const SimResult r = cluster.run(w, 100, HostModel::k715, false);
  std::printf("\non the 1994 cluster: %.3f s/step, efficiency %.2f "
              "(bus %2.0f%% busy)\n",
              r.seconds_per_step, r.efficiency, 100 * r.bus_utilization);
  return 0;
}
