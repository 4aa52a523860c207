// Quickstart: simulate the jet of a small flue pipe on a (2 x 2)
// decomposition and write a vorticity snapshot.  This is the smallest
// end-to-end use of the public API.
//
//   $ ./quickstart
//   step 600: max |vorticity| = ...
//   wrote quickstart_vorticity.pgm
#include <cstdio>

#include "src/core/subsonic.hpp"

int main() {
  using namespace subsonic;

  // 1. Build the geometry (Figure-1 style flue pipe, scaled down).
  const Geometry2D geo =
      build_flue_pipe(Extents2{240, 150}, FluePipeVariant::kBasic,
                      /*ghost=*/3);

  // 2. Physics: lattice units, modest jet, the stabilizing filter on.
  FluidParams params;
  params.dt = 1.0;
  params.nu = 0.01;
  params.filter_eps = 0.1;
  params.inlet_vx = geo.inlet_speed;

  // 3. Run on a (2 x 2) decomposition, one thread per subregion.
  BlockedDriver<2> sim(geo.mask, params, Method::kLatticeBoltzmann,
                       GridShape{2, 2, 1}, 0);
  const int steps = 600;
  sim.run(steps);

  // 4. Inspect the result.
  const auto w = vorticity_of_gathered(sim);
  std::printf("step %d: max |vorticity| = %.3g\n", steps, max_abs(w));
  write_pgm_symmetric(w, "quickstart_vorticity.pgm");
  std::printf("wrote quickstart_vorticity.pgm (%d x %d)\n", w.nx(), w.ny());

  // 5. What the paper's efficiency model predicts for this run shape.
  const Decomposition2D d(geo.mask.extents(), 2, 2);
  const double n = double(d.box(0).count());
  std::printf("model efficiency for this decomposition: %.2f\n",
              efficiency_shared_bus_2d(n, d.paper_m(), d.rank_count()));
  return 0;
}
