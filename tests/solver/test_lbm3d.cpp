#include "src/solver/lbm3d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/solver/poiseuille.hpp"
#include "src/util/rng.hpp"

namespace subsonic {
namespace {

using lbm3d::kCx;
using lbm3d::kCy;
using lbm3d::kCz;
using lbm3d::kOpposite;
using lbm3d::kQ;
using lbm3d::kW;

TEST(LbmD3Q15, WeightsSumToOne) {
  double s = 0;
  for (double w : kW) s += w;
  EXPECT_NEAR(s, 1.0, 1e-15);
}

TEST(LbmD3Q15, VelocitySetIsSymmetric) {
  int sx = 0, sy = 0, sz = 0;
  for (int i = 0; i < kQ; ++i) {
    sx += kCx[i];
    sy += kCy[i];
    sz += kCz[i];
  }
  EXPECT_EQ(sx, 0);
  EXPECT_EQ(sy, 0);
  EXPECT_EQ(sz, 0);
}

TEST(LbmD3Q15, FivePopulationsCrossEachFace) {
  // The paper's 3D communication count: 5 variables per boundary node.
  for (int axis = 0; axis < 3; ++axis) {
    const int* c = axis == 0 ? kCx : axis == 1 ? kCy : kCz;
    int crossing = 0;
    for (int i = 0; i < kQ; ++i)
      if (c[i] > 0) ++crossing;
    EXPECT_EQ(crossing, 5) << "axis " << axis;
  }
}

TEST(LbmD3Q15, OppositeTableIsAnInvolutionReversingVelocity) {
  for (int i = 0; i < kQ; ++i) {
    const int o = kOpposite[i];
    EXPECT_EQ(kOpposite[o], i);
    EXPECT_EQ(kCx[o], -kCx[i]);
    EXPECT_EQ(kCy[o], -kCy[i]);
    EXPECT_EQ(kCz[o], -kCz[i]);
  }
}

TEST(LbmD3Q15, EquilibriumMomentsMatchInputs) {
  Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    const double rho = rng.uniform(0.5, 2.0);
    const double ux = rng.uniform(-0.1, 0.1);
    const double uy = rng.uniform(-0.1, 0.1);
    const double uz = rng.uniform(-0.1, 0.1);
    double m0 = 0, mx = 0, my = 0, mz = 0;
    for (int i = 0; i < kQ; ++i) {
      const double e = lbm3d::equilibrium(i, rho, ux, uy, uz);
      m0 += e;
      mx += kCx[i] * e;
      my += kCy[i] * e;
      mz += kCz[i] * e;
    }
    EXPECT_NEAR(m0, rho, 1e-13);
    EXPECT_NEAR(mx, rho * ux, 1e-13);
    EXPECT_NEAR(my, rho * uy, 1e-13);
    EXPECT_NEAR(mz, rho * uz, 1e-13);
  }
}

TEST(LbmD3Q15, EquilibriumSecondMomentIsIsothermalPressure) {
  const double rho = 1.1, ux = 0.04, uy = -0.03, uz = 0.02;
  double pxx = 0, pxy = 0, pxz = 0;
  for (int i = 0; i < kQ; ++i) {
    const double e = lbm3d::equilibrium(i, rho, ux, uy, uz);
    pxx += kCx[i] * kCx[i] * e;
    pxy += kCx[i] * kCy[i] * e;
    pxz += kCx[i] * kCz[i] * e;
  }
  EXPECT_NEAR(pxx, rho / 3.0 + rho * ux * ux, 1e-13);
  EXPECT_NEAR(pxy, rho * ux * uy, 1e-13);
  EXPECT_NEAR(pxz, rho * ux * uz, 1e-13);
}

FluidParams lb_params() {
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.05;
  return p;
}

TEST(Lbm3D, UniformStateIsAFixedPoint) {
  Mask3D mask(Extents3{8, 8, 8}, 1);
  FluidParams p = lb_params();
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  SerialDriver<3> drv(mask, p, Method::kLatticeBoltzmann);
  drv.run(10);
  for (int z = 0; z < 8; ++z)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x) {
        EXPECT_NEAR(drv.domain().rho()(x, y, z), 1.0, 1e-14);
        EXPECT_NEAR(drv.domain().vx()(x, y, z), 0.0, 1e-15);
      }
}

TEST(Lbm3D, PeriodicMassConservation) {
  const int n = 12;
  Mask3D mask(Extents3{n, n, n}, 1);
  FluidParams p = lb_params();
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  SerialDriver<3> drv(mask, p, Method::kLatticeBoltzmann);
  Domain3D& d = drv.domain();
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x)
        d.rho()(x, y, z) =
            1.0 + 0.04 * std::sin(2 * M_PI * x / double(n)) *
                      std::cos(2 * M_PI * z / double(n));
  drv.reinitialize();
  auto mass = [&] {
    double m = 0;
    for (int z = 0; z < n; ++z)
      for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
          for (int i = 0; i < kQ; ++i) m += d.f(i)(x, y, z);
    return m;
  };
  const double m0 = mass();
  drv.run(50);
  EXPECT_NEAR(mass() / m0, 1.0, 1e-12);
}

TEST(Lbm3D, ShearWaveDecaysAtViscousRate) {
  const int n = 32;
  Mask3D mask(Extents3{n, n, 4}, 1);
  FluidParams p = lb_params();
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  SerialDriver<3> drv(mask, p, Method::kLatticeBoltzmann);
  Domain3D& d = drv.domain();
  const double amp = 0.01;
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x)
        d.vx()(x, y, z) = shear_wave_velocity(y, 0.0, n, 1, amp, p.nu);
  drv.reinitialize();
  const int steps = 200;
  drv.run(steps);
  const double expected =
      shear_wave_velocity(n / 4.0, steps * p.dt, n, 1, amp, p.nu);
  double measured = 0;
  for (int x = 0; x < n; ++x) measured += d.vx()(x, n / 4, 2);
  measured /= n;
  EXPECT_NEAR(measured / expected, 1.0, 0.02);
}

TEST(Lbm3D, ForcedDuctDevelopsHagenPoiseuilleLikeProfile) {
  // Flow through a square duct (the paper's Hagen-Poiseuille test).  We
  // check the qualitative profile: maximum at the centre, zero at the
  // walls, symmetric.
  const int nx = 4, ny = 15, nz = 15;
  const Mask3D mask = build_channel3d(Extents3{nx, ny, nz}, 1);
  FluidParams p = lb_params();
  p.periodic_x = true;
  p.nu = 0.1;
  p.force_x = 1e-4;
  SerialDriver<3> drv(mask, p, Method::kLatticeBoltzmann);
  drv.run(2000);
  const Domain3D& d = drv.domain();
  const double centre = d.vx()(2, ny / 2, nz / 2);
  EXPECT_GT(centre, 0.0);
  // Walls at rest.
  EXPECT_DOUBLE_EQ(d.vx()(2, 0, nz / 2), 0.0);
  EXPECT_DOUBLE_EQ(d.vx()(2, ny / 2, 0), 0.0);
  // Monotone decrease from the centre toward the wall.
  for (int y = ny / 2; y < ny - 2; ++y)
    EXPECT_GE(d.vx()(2, y, nz / 2) + 1e-15, d.vx()(2, y + 1, nz / 2));
  // Symmetry about the duct centre.
  for (int y = 1; y < ny - 1; ++y)
    EXPECT_NEAR(d.vx()(2, y, nz / 2), d.vx()(2, ny - 1 - y, nz / 2), 1e-12);
}

}  // namespace
}  // namespace subsonic
