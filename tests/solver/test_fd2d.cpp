#include "src/solver/fd2d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/solver/poiseuille.hpp"

namespace subsonic {
namespace {

FluidParams fd_params() {
  FluidParams p;
  p.dt = 0.3;
  p.nu = 0.05;
  return p;
}

TEST(Fd2D, UniformStateIsAFixedPoint) {
  Mask2D mask(Extents2{16, 16}, 1);
  FluidParams p = fd_params();
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> drv(mask, p, Method::kFiniteDifference);
  drv.run(20);
  EXPECT_NEAR(max_abs(drv.domain().vx()), 0.0, 1e-15);
  EXPECT_NEAR(max_abs(drv.domain().vy()), 0.0, 1e-15);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x)
      EXPECT_NEAR(drv.domain().rho()(x, y), 1.0, 1e-14);
}

TEST(Fd2D, PeriodicMassConservation) {
  // The conservation-form continuity update telescopes on a periodic grid.
  const int n = 32;
  Mask2D mask(Extents2{n, n}, 1);
  FluidParams p = fd_params();
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> drv(mask, p, Method::kFiniteDifference);
  Domain2D& d = drv.domain();
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      d.rho()(x, y) = 1.0 + 0.02 * std::sin(2 * M_PI * x / double(n));
      d.vx()(x, y) = 0.01 * std::cos(2 * M_PI * y / double(n));
    }
  drv.reinitialize();
  const double m0 = interior_sum(d.rho());
  drv.run(200);
  EXPECT_NEAR(interior_sum(d.rho()) / m0, 1.0, 1e-12);
}

TEST(Fd2D, ShearWaveDecaysAtViscousRate) {
  const int n = 64;
  Mask2D mask(Extents2{n, n}, 1);
  FluidParams p = fd_params();
  p.periodic_x = p.periodic_y = true;
  p.nu = 0.05;
  SerialDriver<2> drv(mask, p, Method::kFiniteDifference);
  Domain2D& d = drv.domain();
  const double amp = 0.01;
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      d.vx()(x, y) = shear_wave_velocity(y, 0.0, n, 1, amp, p.nu);
  drv.reinitialize();
  const int steps = 1000;
  drv.run(steps);
  const double expected =
      shear_wave_velocity(double(n) / 4.0, steps * p.dt, n, 1, amp, p.nu);
  double measured = 0;
  for (int x = 0; x < n; ++x) measured += d.vx()(x, n / 4);
  measured /= n;
  EXPECT_NEAR(measured / expected, 1.0, 0.01);
}

TEST(Fd2D, ForcedChannelReachesPoiseuilleProfile) {
  const int nx = 8, ny = 21;
  const Mask2D mask = build_channel2d(Extents2{nx, ny}, 1);
  FluidParams p = fd_params();
  p.periodic_x = true;
  p.nu = 0.1;
  const ChannelWalls w = channel_walls(Method::kFiniteDifference, ny);
  const double peak = 0.05;
  p.force_x = poiseuille_force_for_peak(peak, w, p.nu);
  SerialDriver<2> drv(mask, p, Method::kFiniteDifference);
  drv.run(20000);
  const Domain2D& d = drv.domain();
  // Centered differences represent the parabola exactly, so the steady
  // state matches the analytic profile to the convergence tolerance of the
  // time marching.
  double worst = 0;
  for (int y = 1; y < ny - 1; ++y) {
    const double expect = poiseuille_velocity(y, w.lo, w.hi, p.force_x, p.nu);
    worst = std::max(worst, std::abs(d.vx()(nx / 2, y) - expect));
  }
  EXPECT_LT(worst / peak, 0.005);
}

TEST(Fd2D, AcousticPulsePropagatesAtTheSpeedOfSound) {
  // A small density bump in a periodic domain splits into waves that
  // travel at c_s (paper section 6: the acoustic time scale forces the
  // small explicit step, eq. 4).
  const int n = 128;
  Mask2D mask(Extents2{n, 9}, 1);
  FluidParams p = fd_params();
  p.periodic_x = p.periodic_y = true;
  p.nu = 0.002;
  p.dt = 0.25;
  SerialDriver<2> drv(mask, p, Method::kFiniteDifference);
  Domain2D& d = drv.domain();
  for (int y = 0; y < 9; ++y)
    for (int x = 0; x < n; ++x) {
      const double r = (x - n / 2.0);
      d.rho()(x, y) = 1.0 + 1e-3 * std::exp(-r * r / 18.0);
    }
  drv.reinitialize();
  // Travel 1/4 of the domain: t = (n/4) / cs.
  const double t_target = (n / 4.0) / p.cs;
  const int steps = static_cast<int>(t_target / p.dt);
  drv.run(steps);
  // Find the rightward-moving peak.
  int peak_x = 0;
  double peak_v = -1;
  for (int x = n / 2; x < n; ++x)
    if (d.rho()(x, 4) > peak_v) {
      peak_v = d.rho()(x, 4);
      peak_x = x;
    }
  const double travelled = peak_x - n / 2.0;
  const double expected = p.cs * steps * p.dt;
  EXPECT_NEAR(travelled / expected, 1.0, 0.08);
}

TEST(Fd2D, BodyForceAcceleratesUniformFluid) {
  // Periodic free fluid under constant force: dV/dt = g exactly (advection
  // and pressure vanish for a uniform state).
  Mask2D mask(Extents2{8, 8}, 1);
  FluidParams p = fd_params();
  p.periodic_x = p.periodic_y = true;
  p.force_x = 1e-3;
  SerialDriver<2> drv(mask, p, Method::kFiniteDifference);
  drv.run(100);
  const double expected = p.force_x * 100 * p.dt;
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      EXPECT_NEAR(drv.domain().vx()(x, y), expected, 1e-12);
}

TEST(Fd2D, WallsRemainAtRest) {
  const Mask2D mask = build_channel2d(Extents2{12, 9}, 1);
  FluidParams p = fd_params();
  p.periodic_x = true;
  p.force_x = 1e-4;
  SerialDriver<2> drv(mask, p, Method::kFiniteDifference);
  drv.run(500);
  const Domain2D& d = drv.domain();
  for (int x = 0; x < 12; ++x) {
    EXPECT_DOUBLE_EQ(d.vx()(x, 0), 0.0);
    EXPECT_DOUBLE_EQ(d.vx()(x, 8), 0.0);
    EXPECT_DOUBLE_EQ(d.rho()(x, 0), 1.0);
  }
}

}  // namespace
}  // namespace subsonic
