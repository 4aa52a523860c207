// Reproduction of the paper's flagship application (Figures 1 and 2):
// air blown through a flue pipe — a jet impinges a sharp edge next to a
// resonant cavity and begins to oscillate, the mechanism behind organ
// pipes, recorders and flutes.
//
// Usage:
//   flue_pipe [basic|channel] [nx ny] [steps] [jx jy]
//
// Defaults reproduce Figure 1's (5 x 4) decomposition at reduced scale.
// The "channel" variant is Figure 2's geometry, where whole subregions
// are solid walls and run no process at all.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/subsonic.hpp"
#include "src/solver/probe.hpp"

int main(int argc, char** argv) {
  using namespace subsonic;

  FluePipeVariant variant = FluePipeVariant::kBasic;
  int nx = 400, ny = 250, steps = 1200, jx = 5, jy = 4;
  if (argc > 1 && std::strcmp(argv[1], "channel") == 0)
    variant = FluePipeVariant::kChannel;
  if (argc > 3) {
    nx = std::atoi(argv[2]);
    ny = std::atoi(argv[3]);
  }
  if (argc > 4) steps = std::atoi(argv[4]);
  if (argc > 6) {
    jx = std::atoi(argv[5]);
    jy = std::atoi(argv[6]);
  }
  if (variant == FluePipeVariant::kChannel && argc <= 6) {
    jx = 6;  // Figure 2 uses a (6 x 4) decomposition
  }

  const Geometry2D geo = build_flue_pipe(Extents2{nx, ny}, variant, 3);
  std::printf("flue pipe (%s): %d x %d nodes, jet opening rows %d..%d\n",
              variant == FluePipeVariant::kBasic ? "Figure 1" : "Figure 2",
              nx, ny, geo.jet_y0, geo.jet_y1);

  FluidParams params;
  params.dt = 1.0;
  params.nu = 0.008;
  params.filter_eps = 0.12;
  params.inlet_vx = geo.inlet_speed;

  BlockedDriver<2> sim(geo.mask, params, Method::kLatticeBoltzmann,
                       GridShape{jx, jy, 1}, 0);
  // Block side 0: block b is rank b's subregion.
  const Decomposition2D& d = sim.blocks().blocks();
  std::printf("decomposition (%d x %d) = %d subregions, %d active\n", jx,
              jy, d.rank_count(), sim.active_count());
  if (sim.active_count() < d.rank_count())
    std::printf("  -> %d all-solid subregions run no process (paper Fig 2: "
                "15 of 24 active)\n",
                d.rank_count() - sim.active_count());

  // Probe the transverse jet velocity at the labium every chunk of steps
  // to detect the musical oscillation (the paper's jet oscillated at
  // ~1000 Hz; in lattice units the period scales with the mouth size).
  Probe probe;
  const int px = static_cast<int>(0.245 * nx);
  const int py = (geo.jet_y0 + geo.jet_y1) / 2;
  const int snapshots = 4;
  const int chunk = 20;  // probe resolution in steps
  for (int s = 0; s < snapshots; ++s) {
    for (int c = 0; c < steps / snapshots; c += chunk) {
      sim.run(chunk);
      const int b = d.owner_of(px, py);
      probe.record(
          sim.block_domain(b).vy()(px - d.box(b).x0, py - d.box(b).y0));
    }
    const auto w = vorticity_of_gathered(sim);
    const std::string path =
        "flue_pipe_vorticity_" + std::to_string((s + 1) * steps / snapshots) +
        ".pgm";
    write_pgm_symmetric(w, path);
    std::printf("step %5d: max |vorticity| = %8.4g  -> %s\n",
                (s + 1) * (steps / snapshots), max_abs(w), path.c_str());
  }

  // Oscillation analysis over the second half of the record.
  const size_t tail = probe.size() / 2;
  const double period_steps = probe.dominant_period(tail) * chunk;
  std::printf("\njet at the labium: amplitude %.4f, mean %.4f\n",
              probe.amplitude(tail), probe.mean(tail));
  if (period_steps > 0)
    std::printf("dominant oscillation period: %.0f steps (%d crossings in "
                "the tail)\n(the paper's 800x500 run: 1000 Hz, i.e. ~5800 "
                "steps per period at its scale)\n",
                period_steps, probe.crossings(tail));
  else
    std::printf("oscillation not yet established — run more steps (the "
                "paper used 70000)\n");
  return 0;
}
