#include "src/solver/fd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/flue_pipe.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/solver/poiseuille.hpp"
#include "src/solver/schedule.hpp"
#include "src/util/fp_env.hpp"
#include "src/util/rng.hpp"
#include "tests/support/bitwise.hpp"

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


TEST(Fd3D, VelocityAndDensityMatchTheScalarLoopsBitwise) {
  // Both span loops carry `#pragma GCC ivdep` so that gcc vectorises
  // them.  The loops below are their scalar forms (the same operation
  // trees); both must give the same bits on every padded node but a NaN's
  // sign, with about one input in ten a NaN, an infinity, -0.0, a
  // subnormal or +-1e308.
  Mask3D mask(Extents3{20, 16, 14}, 3);
  Rng types(32);
  for (int z = 0; z < 14; ++z)
    for (int y = 0; y < 16; ++y)
      for (int x = 0; x < 20; ++x) {
        const auto t = types.below(16);
        if (t == 0) mask.set(x, y, z, NodeType::kWall);
        if (t == 1) mask.set(x, y, z, NodeType::kOutlet);
      }
  FluidParams p = fd_params();
  p.force_x = 1e-4;
  p.force_y = -2e-4;
  p.force_z = 3e-4;
  const double inv2dx = 1.0 / (2.0 * p.dx);
  const double invdx2 = 1.0 / (p.dx * p.dx);
  const double cs2 = p.cs * p.cs;
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    Domain3D d(mask, Box3{3, 3, 3, 17, 13, 11}, p, Method::kFiniteDifference,
               3, threads);
    Rng values(18);
    const int g = d.ghost();
    for (PaddedField3D<double>* u :
         {&d.rho(), &d.vx(), &d.vy(), &d.vz(), &d.rho_next(), &d.vx_next(),
          &d.vy_next(), &d.vz_next()})
      for (int z = -g; z < d.nz() + g; ++z)
        for (int y = -g; y < d.ny() + g; ++y)
          for (int x = -g; x < d.nx() + g; ++x)
            (*u)(x, y, z) = test::value_or_special(values, -1.0, 1.0);
    const auto computed = [&](int x, int y, int z) {
      const NodeType t = d.node(x, y, z);
      return t == NodeType::kFluid || t == NodeType::kOutlet;
    };
    // Each pass reads the current buffers and leaves its result in the
    // _next ones, which it then makes current; cells it does not compute
    // keep what those buffers held.
    const PaddedField3D<double> ux = d.vx(), uy = d.vy(), uz = d.vz();
    const PaddedField3D<double> rh = d.rho();
    PaddedField3D<double> outx = d.vx_next(), outy = d.vy_next(),
                          outz = d.vz_next(), outr = d.rho_next();
    const FlushSubnormals flush;  // the FP mode the kernels run in
    for (int z = 0; z < d.nz(); ++z)
      for (int y = 0; y < d.ny(); ++y)
        for (int x = 0; x < d.nx(); ++x) {
          if (!computed(x, y, z)) continue;
          const double vux = ux(x, y, z);
          const double vuy = uy(x, y, z);
          const double vuz = uz(x, y, z);
          const double rho = rh(x, y, z);
          const auto ddx = [&](const PaddedField3D<double>& u) {
            return (u(x + 1, y, z) - u(x - 1, y, z)) * inv2dx;
          };
          const auto ddy = [&](const PaddedField3D<double>& u) {
            return (u(x, y + 1, z) - u(x, y - 1, z)) * inv2dx;
          };
          const auto ddz = [&](const PaddedField3D<double>& u) {
            return (u(x, y, z + 1) - u(x, y, z - 1)) * inv2dx;
          };
          const auto lap = [&](const PaddedField3D<double>& u, double c) {
            return (u(x + 1, y, z) + u(x - 1, y, z) + u(x, y + 1, z) +
                    u(x, y - 1, z) + u(x, y, z + 1) + u(x, y, z - 1) -
                    6.0 * c) *
                   invdx2;
          };
          const double dux_dx = ddx(ux), dux_dy = ddy(ux), dux_dz = ddz(ux);
          const double duy_dx = ddx(uy), duy_dy = ddy(uy), duy_dz = ddz(uy);
          const double duz_dx = ddx(uz), duz_dy = ddy(uz), duz_dz = ddz(uz);
          const double drho_dx = ddx(rh), drho_dy = ddy(rh),
                       drho_dz = ddz(rh);
          const double lap_ux = lap(ux, vux), lap_uy = lap(uy, vuy),
                       lap_uz = lap(uz, vuz);
          outx(x, y, z) =
              vux + p.dt * (-vux * dux_dx - vuy * dux_dy - vuz * dux_dz -
                            cs2 / rho * drho_dx + p.nu * lap_ux + p.force_x);
          outy(x, y, z) =
              vuy + p.dt * (-vux * duy_dx - vuy * duy_dy - vuz * duy_dz -
                            cs2 / rho * drho_dy + p.nu * lap_uy + p.force_y);
          outz(x, y, z) =
              vuz + p.dt * (-vux * duz_dx - vuy * duz_dy - vuz * duz_dz -
                            cs2 / rho * drho_dz + p.nu * lap_uz + p.force_z);
        }
    // Continuity reads the advanced velocities.
    for (int z = 0; z < d.nz(); ++z)
      for (int y = 0; y < d.ny(); ++y)
        for (int x = 0; x < d.nx(); ++x) {
          if (!computed(x, y, z)) continue;
          const double dmx = (rh(x + 1, y, z) * outx(x + 1, y, z) -
                              rh(x - 1, y, z) * outx(x - 1, y, z)) *
                             inv2dx;
          const double dmy = (rh(x, y + 1, z) * outy(x, y + 1, z) -
                              rh(x, y - 1, z) * outy(x, y - 1, z)) *
                             inv2dx;
          const double dmz = (rh(x, y, z + 1) * outz(x, y, z + 1) -
                              rh(x, y, z - 1) * outz(x, y, z - 1)) *
                             inv2dx;
          outr(x, y, z) = rh(x, y, z) - p.dt * (dmx + dmy + dmz);
        }
    fd::advance_velocity(d);
    test::expect_same_bits_any_nan(d.vx(), outx, "vx");
    test::expect_same_bits_any_nan(d.vy(), outy, "vy");
    test::expect_same_bits_any_nan(d.vz(), outz, "vz");
    fd::advance_density(d);
    test::expect_same_bits_any_nan(d.rho(), outr, "rho");
  }
}

TEST(Fd3D, BandThenInteriorIsTheFullPassBitwise) {
  // As Fd2D's: kBand then kInterior leaves every padded node of both
  // buffers as kFull does, in a box thick enough for an interior and in
  // one thinner than the band on z, at 1 and 3 threads.
  Mask3D mask(Extents3{20, 16, 14}, 3);
  Rng types(34);
  for (int z = 0; z < 14; ++z)
    for (int y = 0; y < 16; ++y)
      for (int x = 0; x < 20; ++x) {
        const auto t = types.below(16);
        if (t == 0) mask.set(x, y, z, NodeType::kWall);
        if (t == 1) mask.set(x, y, z, NodeType::kOutlet);
      }
  FluidParams p = fd_params();
  p.force_z = 1e-4;
  for (const Box3& box : {Box3{2, 3, 2, 18, 14, 12}, Box3{2, 3, 2, 18, 14, 6}})
    for (int threads : {1, 3}) {
      SCOPED_TRACE(::testing::Message() << box << ", threads " << threads);
      Domain3D split(mask, box, p, Method::kFiniteDifference, 3, threads);
      Domain3D whole(mask, box, p, Method::kFiniteDifference, 3, threads);
      Rng values(19);
      const int g = split.ghost();
      for (FieldId id : Domain3D::macro_fields())
        for (int z = -g; z < split.nz() + g; ++z)
          for (int y = -g; y < split.ny() + g; ++y)
            for (int x = -g; x < split.nx() + g; ++x)
              split.field(id)(x, y, z) = whole.field(id)(x, y, z) =
                  test::value_or_special(values, -1.0, 1.0);
      for (ComputeKind kind :
           {ComputeKind::kFdVelocity, ComputeKind::kFdDensity}) {
        run_compute(split, kind, ComputePass::kBand);
        run_compute(split, kind, ComputePass::kInterior);
        run_compute(whole, kind, ComputePass::kFull);
        test::expect_same_bits(split.rho(), whole.rho(), "rho");
        test::expect_same_bits(split.rho_next(), whole.rho_next(),
                               "rho_next");
        for (int a = 0; a < 3; ++a) {
          test::expect_same_bits(split.v(a), whole.v(a), "v");
          test::expect_same_bits(split.v_next(a), whole.v_next(a), "v_next");
        }
      }
    }
}

}  // namespace
}  // namespace subsonic
