// Acoustic waves — the reason subsonic flow forces explicit methods
// (paper section 6, eq. 4): the integration step must resolve sound
// propagation, c_s dt ~ dx.  A Gaussian density pulse is released in a
// closed box; it splits, propagates at c_s, and reflects off the walls.
// The example measures the propagation speed and the reflection.
#include <cmath>
#include <cstdio>

#include "src/core/subsonic.hpp"

int main() {
  using namespace subsonic;

  const int n = 200;
  Mask2D mask(Extents2{n, 41}, 3);
  // Close the box.
  mask.fill_box({0, 0, n, 1}, NodeType::kWall);
  mask.fill_box({0, 40, n, 41}, NodeType::kWall);
  mask.fill_box({0, 0, 1, 41}, NodeType::kWall);
  mask.fill_box({n - 1, 0, n, 41}, NodeType::kWall);

  FluidParams p;
  p.dt = 1.0;  // lattice units; c_s = 1/sqrt(3) nodes per step
  p.nu = 0.005;
  p.filter_eps = 0.05;

  SerialDriver<2> sim(mask, p, Method::kLatticeBoltzmann);
  // Gaussian pulse in the middle.
  for (int y = 1; y < 40; ++y)
    for (int x = 1; x < n - 1; ++x) {
      const double r = x - n / 2.0;
      sim.domain().rho()(x, y) = 1.0 + 1e-3 * std::exp(-r * r / 32.0);
    }
  sim.reinitialize();

  std::printf("acoustic pulse in a %d x 41 closed box, c_s = %.4f\n", n,
              p.cs);
  std::printf("%-6s %-10s %-12s %s\n", "step", "peak_x", "travelled",
              "measured_speed");

  int prev_peak = n / 2;
  const int interval = 20;
  for (int s = 1; s <= 5; ++s) {
    sim.run(interval);
    // Track the rightward-moving wavefront.
    int peak_x = n / 2;
    double peak_v = -1;
    for (int x = n / 2; x < n - 2; ++x)
      if (sim.domain().rho()(x, 20) > peak_v) {
        peak_v = sim.domain().rho()(x, 20);
        peak_x = x;
      }
    const double speed = double(peak_x - prev_peak) / interval;
    std::printf("%-6d %-10d %-12d %.4f\n", s * interval, peak_x,
                peak_x - n / 2, speed);
    prev_peak = peak_x;
  }
  std::printf("expected speed c_s = %.4f nodes/step\n", p.cs);

  // Let it reflect off the right wall and come back.
  sim.run(260);
  int peak_x = 0;
  double peak_v = -1;
  for (int x = 2; x < n - 2; ++x)
    if (sim.domain().rho()(x, 20) > peak_v) {
      peak_v = sim.domain().rho()(x, 20);
      peak_x = x;
    }
  std::printf("after reflection (step 360): wavefront at x = %d, "
              "amplitude %.2e\n",
              peak_x, peak_v - 1.0);
  return 0;
}
