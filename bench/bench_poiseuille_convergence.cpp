// Section 7 validation claim: "both methods converge quadratically with
// increased resolution in space to the exact solution of the
// Hagen-Poiseuille flow problem."  Sweeps channel resolutions, prints
// max relative error and the observed convergence order between
// consecutive resolutions, and a shear-wave (time-dependent) convergence
// study as a second, non-trivial accuracy check.
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
  drv.run(int(40.0 * ny * ny / p.dt));
  double worst = 0;
  for (int y = 1; y < ny - 1; ++y)
    worst = std::max(worst,
                     std::abs(drv.domain().vx()(nx / 2, y) -
                              poiseuille_velocity(y, w.lo, w.hi, p.force_x,
                                                  p.nu)));
  return worst / peak;
}

double shear_wave_error(Method method, int n) {
  Mask2D mask(Extents2{4, n}, 1);
  FluidParams p;
  p.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.25;
  p.nu = 0.04;
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> drv(mask, p, method);
  const double amp = 0.01;
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < 4; ++x)
      drv.domain().vx()(x, y) = shear_wave_velocity(y, 0.0, n, 1, amp, p.nu);
  drv.reinitialize();
  // Integrate to a fixed *physical* time scaled with the wavelength so
  // the comparison is resolution-to-resolution meaningful.
  const double t_final = 0.05 * n * n / p.nu;
  const int steps = int(t_final / p.dt);
  drv.run(steps);
  double worst = 0;
  for (int y = 0; y < n; ++y) {
    const double expect =
        shear_wave_velocity(y, steps * p.dt, n, 1, amp, p.nu);
    worst = std::max(worst, std::abs(drv.domain().vx()(2, y) - expect));
  }
  return worst / amp;
}

void table(const char* title, double (*err)(Method, int),
           const std::vector<int>& sizes) {
  std::printf("%s\n%-6s %-6s %-14s %s\n", title, "method", "n",
              "max_rel_error", "order");
  for (Method m : {Method::kLatticeBoltzmann, Method::kFiniteDifference}) {
    double prev = 0;
    int prev_n = 0;
    for (int n : sizes) {
      const double e = err(m, n);
      if (prev > 0 && e > 1e-13) {
        const double order =
            std::log(prev / e) / std::log(double(n - 1) / (prev_n - 1));
        std::printf("%-6s %-6d %-14.3e %.2f\n", to_string(m), n, e, order);
      } else {
        std::printf("%-6s %-6d %-14.3e %s\n", to_string(m), n, e,
                    e <= 1e-13 ? "(exact)" : "-");
      }
      prev = e;
      prev_n = n;
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  std::printf("Convergence studies (paper section 7)\n\n");
  table("Hagen-Poiseuille steady channel:", poiseuille_error, {11, 21, 41});
  table("Decaying shear wave (time-dependent):", shear_wave_error,
        {16, 32, 64});
  std::printf("paper: both methods converge quadratically in space.\n");
  return 0;
}
