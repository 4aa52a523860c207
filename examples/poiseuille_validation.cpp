// Validation on Hagen-Poiseuille channel flow (paper section 7): both
// numerical methods are run to steady state at several resolutions and
// compared against the exact parabolic profile.  The paper's claim is
// quadratic convergence in spatial resolution for both methods.
//
//   $ ./poiseuille_validation
//   method  ny   max_rel_error   order
//   LB      11   ...
//   LB      21   ...             2.01
//   ...
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/core/subsonic.hpp"

namespace {

using namespace subsonic;

double poiseuille_error(Method method, int ny) {
  const int nx = 6;
  const Mask2D mask = build_channel2d(Extents2{nx, ny}, 1);
  FluidParams p;
  p.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.25;
  p.nu = 0.1;
  p.periodic_x = true;
  const ChannelWalls w = channel_walls(method, ny);
  const double peak = 0.04;
  p.force_x = poiseuille_force_for_peak(peak, w, p.nu);

  SerialDriver<2> drv(mask, p, method);
  // March to steady state: the viscous time scale grows with ny^2.
  const int steps = int(40.0 * ny * ny / p.dt);
  drv.run(steps);

  double worst = 0;
  for (int y = 1; y < ny - 1; ++y) {
    const double expect = poiseuille_velocity(y, w.lo, w.hi, p.force_x, p.nu);
    worst = std::max(worst,
                     std::abs(drv.domain().vx()(nx / 2, y) - expect));
  }
  return worst / peak;
}

}  // namespace

int main() {
  std::printf("Hagen-Poiseuille validation (paper section 7)\n");
  std::printf("%-6s %-5s %-15s %s\n", "method", "ny", "max_rel_error",
              "order");
  const std::vector<int> resolutions{11, 21, 41};
  for (Method m : {Method::kLatticeBoltzmann, Method::kFiniteDifference}) {
    double prev = 0;
    int prev_ny = 0;
    for (int ny : resolutions) {
      const double err = poiseuille_error(m, ny);
      if (prev > 0 && err > 0) {
        const double order = std::log(prev / err) /
                             std::log(double(ny - 1) / (prev_ny - 1));
        std::printf("%-6s %-5d %-15.3e %.2f\n", to_string(m), ny, err,
                    order);
      } else {
        std::printf("%-6s %-5d %-15.3e -\n", to_string(m), ny, err);
      }
      prev = err;
      prev_ny = ny;
    }
  }
  std::printf("\n(FD represents the parabola exactly, so its error is the "
              "time-marching residual;\n LB converges quadratically via "
              "bounce-back wall placement.)\n");
  return 0;
}
