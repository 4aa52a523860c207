#include "src/solver/fd3d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/flue_pipe.hpp"
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

TEST(Fd3D, UniformStateIsAFixedPoint) {
  Mask3D mask(Extents3{8, 8, 8}, 1);
  FluidParams p = fd_params();
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  SerialDriver<3> drv(mask, p, Method::kFiniteDifference);
  drv.run(20);
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x) {
        EXPECT_NEAR(drv.domain().rho()(x, y, z), 1.0, 1e-14);
        EXPECT_NEAR(drv.domain().vz()(x, y, z), 0.0, 1e-15);
      }
}

TEST(Fd3D, PeriodicMassConservation) {
  const int n = 12;
  Mask3D mask(Extents3{n, n, n}, 1);
  FluidParams p = fd_params();
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  SerialDriver<3> drv(mask, p, Method::kFiniteDifference);
  Domain3D& d = drv.domain();
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) {
        d.rho()(x, y, z) = 1.0 + 0.02 * std::sin(2 * M_PI * y / double(n));
        d.vz()(x, y, z) = 0.01 * std::cos(2 * M_PI * x / double(n));
      }
  drv.reinitialize();
  auto mass = [&] {
    double m = 0;
    for (int z = 0; z < n; ++z)
      for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x) m += d.rho()(x, y, z);
    return m;
  };
  const double m0 = mass();
  drv.run(100);
  EXPECT_NEAR(mass() / m0, 1.0, 1e-12);
}

TEST(Fd3D, ShearWaveDecaysAtViscousRate) {
  const int n = 32;
  Mask3D mask(Extents3{n, n, 4}, 1);
  FluidParams p = fd_params();
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  SerialDriver<3> drv(mask, p, Method::kFiniteDifference);
  Domain3D& d = drv.domain();
  const double amp = 0.01;
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x)
        d.vx()(x, y, z) = shear_wave_velocity(y, 0.0, n, 1, amp, p.nu);
  drv.reinitialize();
  const int steps = 500;
  drv.run(steps);
  const double expected =
      shear_wave_velocity(n / 4.0, steps * p.dt, n, 1, amp, p.nu);
  double measured = 0;
  for (int x = 0; x < n; ++x) measured += d.vx()(x, n / 4, 2);
  measured /= n;
  EXPECT_NEAR(measured / expected, 1.0, 0.02);
}

TEST(Fd3D, BodyForceAcceleratesUniformFluid) {
  Mask3D mask(Extents3{6, 6, 6}, 1);
  FluidParams p = fd_params();
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  p.force_z = 2e-3;
  SerialDriver<3> drv(mask, p, Method::kFiniteDifference);
  drv.run(50);
  const double expected = p.force_z * 50 * p.dt;
  for (int z = 0; z < 6; ++z)
    for (int y = 0; y < 6; ++y)
      for (int x = 0; x < 6; ++x)
        EXPECT_NEAR(drv.domain().vz()(x, y, z), expected, 1e-12);
}

TEST(Fd3D, ForcedDuctProfileIsSymmetricAndPinnedAtWalls) {
  const int nx = 4, ny = 13, nz = 13;
  const Mask3D mask = build_channel3d(Extents3{nx, ny, nz}, 1);
  FluidParams p = fd_params();
  p.periodic_x = true;
  p.nu = 0.1;
  p.force_x = 1e-4;
  SerialDriver<3> drv(mask, p, Method::kFiniteDifference);
  drv.run(3000);
  const Domain3D& d = drv.domain();
  EXPECT_GT(d.vx()(2, ny / 2, nz / 2), 0.0);
  EXPECT_DOUBLE_EQ(d.vx()(2, 0, nz / 2), 0.0);
  EXPECT_DOUBLE_EQ(d.vx()(2, ny - 1, nz / 2), 0.0);
  for (int y = 1; y < ny - 1; ++y)
    EXPECT_NEAR(d.vx()(2, y, nz / 2), d.vx()(2, ny - 1 - y, nz / 2), 1e-12);
}

}  // namespace
}  // namespace subsonic
