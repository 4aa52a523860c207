#include "src/solver/fd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
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


TEST(Fd2D, VelocityMatchesTheScalarLoopBitwise) {
  // The velocity span loop carries `#pragma GCC ivdep` so that gcc
  // vectorises it.  The loop below is its scalar form (the same operation
  // tree); both must give the same bits on every padded node but a NaN's
  // sign, with about one input in ten a NaN, an infinity, -0.0, a
  // subnormal or +-1e308.
  Mask2D mask(Extents2{40, 30}, 3);
  Rng types(31);
  for (int y = 0; y < 30; ++y)
    for (int x = 0; x < 40; ++x) {
      const auto t = types.below(16);
      if (t == 0) mask.set(x, y, NodeType::kWall);
      if (t == 1) mask.set(x, y, NodeType::kOutlet);
    }
  FluidParams p = fd_params();
  p.force_x = 1e-4;
  p.force_y = -2e-4;
  const double inv2dx = 1.0 / (2.0 * p.dx);
  const double invdx2 = 1.0 / (p.dx * p.dx);
  const double cs2 = p.cs * p.cs;
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    Domain2D d(mask, Box2{4, 3, 36, 27}, p, Method::kFiniteDifference, 3,
               threads);
    Rng values(17);
    const int g = d.ghost();
    for (PaddedField2D<double>* u :
         {&d.rho(), &d.vx(), &d.vy(), &d.vx_next(), &d.vy_next()})
      for (int y = -g; y < d.ny() + g; ++y)
        for (int x = -g; x < d.nx() + g; ++x)
          (*u)(x, y) = test::value_or_special(values, -1.0, 1.0);
    // The pass reads the current buffers and leaves its result in the
    // _next ones, which it then makes current; cells it does not compute
    // keep what those buffers held.
    const PaddedField2D<double> ux = d.vx(), uy = d.vy(), rh = d.rho();
    PaddedField2D<double> outx = d.vx_next(), outy = d.vy_next();
    const FlushSubnormals flush;  // the FP mode the kernels run in
    for (int y = 0; y < d.ny(); ++y)
      for (int x = 0; x < d.nx(); ++x) {
        const NodeType t = d.node(x, y);
        if (t != NodeType::kFluid && t != NodeType::kOutlet) continue;
        const double vx = ux(x, y);
        const double vy = uy(x, y);
        const double dux_dx = (ux(x + 1, y) - ux(x - 1, y)) * inv2dx;
        const double dux_dy = (ux(x, y + 1) - ux(x, y - 1)) * inv2dx;
        const double duy_dx = (uy(x + 1, y) - uy(x - 1, y)) * inv2dx;
        const double duy_dy = (uy(x, y + 1) - uy(x, y - 1)) * inv2dx;
        const double rho = rh(x, y);
        const double drho_dx = (rh(x + 1, y) - rh(x - 1, y)) * inv2dx;
        const double drho_dy = (rh(x, y + 1) - rh(x, y - 1)) * inv2dx;
        const double lap_ux = (ux(x + 1, y) + ux(x - 1, y) + ux(x, y + 1) +
                               ux(x, y - 1) - 4.0 * vx) *
                              invdx2;
        const double lap_uy = (uy(x + 1, y) + uy(x - 1, y) + uy(x, y + 1) +
                               uy(x, y - 1) - 4.0 * vy) *
                              invdx2;
        const double cs2_over_rho = cs2 / rho;
        outx(x, y) = vx + p.dt * (-vx * dux_dx - vy * dux_dy -
                                  cs2_over_rho * drho_dx + p.nu * lap_ux +
                                  p.force_x);
        outy(x, y) = vy + p.dt * (-vx * duy_dx - vy * duy_dy -
                                  cs2_over_rho * drho_dy + p.nu * lap_uy +
                                  p.force_y);
      }
    fd::advance_velocity(d);
    test::expect_same_bits_any_nan(d.vx(), outx, "vx");
    test::expect_same_bits_any_nan(d.vy(), outy, "vy");
  }
}

TEST(Fd2D, BandThenInteriorIsTheFullPassBitwise) {
  // Both kernels split into a band pass and an interior pass (pass.hpp):
  // kBand then kInterior must leave every padded node of both buffers as
  // kFull does, in a box thick enough for an interior and in one thinner
  // than the band on y (no interior), at 1 and 3 threads.
  Mask2D mask(Extents2{40, 30}, 3);
  Rng types(33);
  for (int y = 0; y < 30; ++y)
    for (int x = 0; x < 40; ++x) {
      const auto t = types.below(16);
      if (t == 0) mask.set(x, y, NodeType::kWall);
      if (t == 1) mask.set(x, y, NodeType::kOutlet);
    }
  FluidParams p = fd_params();
  p.force_x = 1e-4;
  for (const Box2& box : {Box2{4, 3, 36, 27}, Box2{4, 3, 36, 8}})
    for (int threads : {1, 3}) {
      SCOPED_TRACE(::testing::Message() << box << ", threads " << threads);
      Domain2D split(mask, box, p, Method::kFiniteDifference, 3, threads);
      Domain2D whole(mask, box, p, Method::kFiniteDifference, 3, threads);
      Rng values(18);
      const int g = split.ghost();
      for (FieldId id : {FieldId::kRho, FieldId::kVx, FieldId::kVy})
        for (int y = -g; y < split.ny() + g; ++y)
          for (int x = -g; x < split.nx() + g; ++x)
            split.field(id)(x, y) = whole.field(id)(x, y) =
                test::value_or_special(values, -1.0, 1.0);
      for (ComputeKind kind :
           {ComputeKind::kFdVelocity, ComputeKind::kFdDensity}) {
        run_compute(split, kind, ComputePass::kBand);
        run_compute(split, kind, ComputePass::kInterior);
        run_compute(whole, kind, ComputePass::kFull);
        test::expect_same_bits(split.rho(), whole.rho(), "rho");
        test::expect_same_bits(split.vx(), whole.vx(), "vx");
        test::expect_same_bits(split.vy(), whole.vy(), "vy");
        test::expect_same_bits(split.rho_next(), whole.rho_next(),
                               "rho_next");
        test::expect_same_bits(split.vx_next(), whole.vx_next(), "vx_next");
        test::expect_same_bits(split.vy_next(), whole.vy_next(), "vy_next");
      }
    }
}

}  // namespace
}  // namespace subsonic
