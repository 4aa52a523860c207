#include "src/solver/lbm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
#include "src/solver/lattice.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/solver/poiseuille.hpp"
#include "src/solver/schedule.hpp"
#include "src/util/check.hpp"
#include "src/util/fp_env.hpp"
#include "src/util/rng.hpp"
#include "tests/support/bitwise.hpp"

namespace subsonic {
namespace {

using lbm2d::kCx;
using lbm2d::kCy;
using lbm2d::kOpposite;
using lbm2d::kQ;
using lbm2d::kW;
using test::expect_same_bits;

TEST(LbmD2Q9, WeightsSumToOne) {
  double s = 0;
  for (double w : kW) s += w;
  EXPECT_NEAR(s, 1.0, 1e-15);
}

TEST(LbmD2Q9, VelocitiesSumToZero) {
  int sx = 0, sy = 0;
  for (int i = 0; i < kQ; ++i) {
    sx += kCx[i];
    sy += kCy[i];
  }
  EXPECT_EQ(sx, 0);
  EXPECT_EQ(sy, 0);
}

TEST(LbmD2Q9, OppositeTableIsAnInvolutionReversingVelocity) {
  for (int i = 0; i < kQ; ++i) {
    const int o = kOpposite[i];
    EXPECT_EQ(kOpposite[o], i);
    EXPECT_EQ(kCx[o], -kCx[i]);
    EXPECT_EQ(kCy[o], -kCy[i]);
    EXPECT_DOUBLE_EQ(kW[o], kW[i]);
  }
}

TEST(LbmD2Q9, EquilibriumMomentsMatchInputs) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const double rho = rng.uniform(0.5, 2.0);
    const double ux = rng.uniform(-0.1, 0.1);
    const double uy = rng.uniform(-0.1, 0.1);
    double m0 = 0, mx = 0, my = 0;
    for (int i = 0; i < kQ; ++i) {
      const double e = lbm2d::equilibrium(i, rho, ux, uy);
      m0 += e;
      mx += kCx[i] * e;
      my += kCy[i] * e;
    }
    EXPECT_NEAR(m0, rho, 1e-13);
    EXPECT_NEAR(mx, rho * ux, 1e-13);
    EXPECT_NEAR(my, rho * uy, 1e-13);
  }
}

TEST(LbmD2Q9, EquilibriumSecondMomentIsIsothermalPressure) {
  // sum c_ia c_ib eq_i = rho cs^2 delta_ab + rho u_a u_b with cs^2 = 1/3.
  const double rho = 1.3, ux = 0.05, uy = -0.02;
  double pxx = 0, pyy = 0, pxy = 0;
  for (int i = 0; i < kQ; ++i) {
    const double e = lbm2d::equilibrium(i, rho, ux, uy);
    pxx += kCx[i] * kCx[i] * e;
    pyy += kCy[i] * kCy[i] * e;
    pxy += kCx[i] * kCy[i] * e;
  }
  EXPECT_NEAR(pxx, rho / 3.0 + rho * ux * ux, 1e-13);
  EXPECT_NEAR(pyy, rho / 3.0 + rho * uy * uy, 1e-13);
  EXPECT_NEAR(pxy, rho * ux * uy, 1e-13);
}

FluidParams lb_params() {
  FluidParams p;
  p.dt = 1.0;  // lattice units
  p.nu = 0.05;
  return p;
}

/// Total mass of the fluid region (sum of populations, not of the rho
/// field, so it is meaningful mid-schedule too).
double fluid_mass(const Domain2D& d) {
  double m = 0;
  for (int y = 0; y < d.ny(); ++y)
    for (int x = 0; x < d.nx(); ++x) {
      if (d.node(x, y) == NodeType::kWall) continue;
      for (int i = 0; i < kQ; ++i) m += d.f(i)(x, y);
    }
  return m;
}

TEST(Lbm2D, UniformStateIsAFixedPoint) {
  Mask2D mask(Extents2{16, 16}, 1);
  FluidParams p = lb_params();
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> drv(mask, p, Method::kLatticeBoltzmann);
  drv.run(10);
  EXPECT_NEAR(max_abs(drv.domain().vx()), 0.0, 1e-15);
  EXPECT_NEAR(max_abs(drv.domain().vy()), 0.0, 1e-15);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x)
      EXPECT_NEAR(drv.domain().rho()(x, y), 1.0, 1e-14);
}

TEST(Lbm2D, PeriodicMassConservation) {
  Mask2D mask(Extents2{32, 32}, 1);
  FluidParams p = lb_params();
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> drv(mask, p, Method::kLatticeBoltzmann);
  // Smooth random-ish perturbation.
  Domain2D& d = drv.domain();
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) {
      d.rho()(x, y) = 1.0 + 0.05 * std::sin(2 * M_PI * x / 32.0) *
                                std::cos(2 * M_PI * y / 32.0);
      d.vx()(x, y) = 0.02 * std::sin(2 * M_PI * y / 32.0);
    }
  drv.reinitialize();
  const double m0 = fluid_mass(d);
  drv.run(100);
  EXPECT_NEAR(fluid_mass(d) / m0, 1.0, 1e-12);
}

TEST(Lbm2D, PeriodicMomentumConservationWithoutForce) {
  Mask2D mask(Extents2{24, 24}, 1);
  FluidParams p = lb_params();
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> drv(mask, p, Method::kLatticeBoltzmann);
  Domain2D& d = drv.domain();
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x)
      d.vx()(x, y) = 0.03 * std::sin(2 * M_PI * y / 24.0) + 0.01;
  drv.reinitialize();
  auto momentum = [&] {
    double mx = 0;
    for (int y = 0; y < 24; ++y)
      for (int x = 0; x < 24; ++x)
        for (int i = 0; i < kQ; ++i) mx += kCx[i] * d.f(i)(x, y);
    return mx;
  };
  const double mx0 = momentum();
  drv.run(50);
  EXPECT_NEAR(momentum(), mx0, 1e-10);
}

TEST(Lbm2D, ClosedBoxMassStaysBounded) {
  // Walls all around; the fluid-region mass may fluctuate by the
  // in-transit boundary populations but must not drift.
  Mask2D mask(Extents2{20, 20}, 1);
  mask.fill_box({0, 0, 20, 1}, NodeType::kWall);
  mask.fill_box({0, 19, 20, 20}, NodeType::kWall);
  mask.fill_box({0, 0, 1, 20}, NodeType::kWall);
  mask.fill_box({19, 0, 20, 20}, NodeType::kWall);
  FluidParams p = lb_params();
  SerialDriver<2> drv(mask, p, Method::kLatticeBoltzmann);
  Domain2D& d = drv.domain();
  for (int y = 1; y < 19; ++y)
    for (int x = 1; x < 19; ++x)
      d.rho()(x, y) = 1.0 + 0.03 * std::exp(-0.1 * ((x - 10.0) * (x - 10.0) +
                                                    (y - 10.0) * (y - 10.0)));
  drv.reinitialize();
  const double m0 = fluid_mass(d);
  drv.run(200);
  EXPECT_NEAR(fluid_mass(d) / m0, 1.0, 1e-3);
}

TEST(Lbm2D, ShearWaveDecaysAtViscousRate) {
  const int n = 64;
  Mask2D mask(Extents2{n, n}, 1);
  FluidParams p = lb_params();
  p.periodic_x = p.periodic_y = true;
  p.nu = 0.05;
  SerialDriver<2> drv(mask, p, Method::kLatticeBoltzmann);
  Domain2D& d = drv.domain();
  const double amp = 0.01;
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      d.vx()(x, y) = shear_wave_velocity(y, 0.0, n, 1, amp, p.nu);
  drv.reinitialize();
  const int steps = 400;
  drv.run(steps);
  const double expected =
      shear_wave_velocity(double(n) / 4.0, steps * p.dt, n, 1, amp, p.nu);
  // Probe at the wave crest y = n/4.
  double measured = 0;
  for (int x = 0; x < n; ++x) measured += d.vx()(x, n / 4);
  measured /= n;
  EXPECT_NEAR(measured / expected, 1.0, 0.01);
}

TEST(Lbm2D, ForcedChannelReachesPoiseuilleProfile) {
  const int nx = 8, ny = 21;
  const Mask2D mask = build_channel2d(Extents2{nx, ny}, 1);
  FluidParams p = lb_params();
  p.periodic_x = true;
  p.nu = 0.1;
  const ChannelWalls w = channel_walls(Method::kLatticeBoltzmann, ny);
  const double peak = 0.05;
  p.force_x = poiseuille_force_for_peak(peak, w, p.nu);
  SerialDriver<2> drv(mask, p, Method::kLatticeBoltzmann);
  drv.run(4000);
  const Domain2D& d = drv.domain();
  double worst = 0;
  for (int y = 1; y < ny - 1; ++y) {
    const double expect = poiseuille_velocity(y, w.lo, w.hi, p.force_x, p.nu);
    worst = std::max(worst, std::abs(d.vx()(nx / 2, y) - expect));
  }
  EXPECT_LT(worst / peak, 0.03);
}

TEST(Lbm2D, FlowIsTranslationInvariantAlongPeriodicAxis) {
  const int nx = 12, ny = 17;
  const Mask2D mask = build_channel2d(Extents2{nx, ny}, 1);
  FluidParams p = lb_params();
  p.periodic_x = true;
  p.force_x = 1e-4;
  SerialDriver<2> drv(mask, p, Method::kLatticeBoltzmann);
  drv.run(100);
  const Domain2D& d = drv.domain();
  for (int y = 0; y < ny; ++y)
    for (int x = 1; x < nx; ++x)
      EXPECT_NEAR(d.vx()(x, y), d.vx()(0, y), 1e-13);
}

/// A 24x20 mask whose walls cross the ghost ring of the domain box below,
/// sit inside its interior and fill one corner of its ring, so the ring
/// holds both walls and fluid.
Mask2D ring_mask() {
  Mask2D mask(Extents2{24, 20}, 3);
  mask.fill_box({2, 0, 8, 6}, NodeType::kWall);
  mask.fill_box({12, 8, 15, 10}, NodeType::kWall);
  mask.fill_box({19, 14, 24, 20}, NodeType::kWall);
  return mask;
}

/// The {4, 3, 20, 15} box of ring_mask() at ghost 3, with the same random
/// populations on every padded node and NaN in rho, vx and vy, so a node
/// that no pass writes still reads NaN.
std::unique_ptr<Domain2D> poisoned_domain(const Mask2D& mask, int threads) {
  auto d = std::make_unique<Domain2D>(mask, Box2{4, 3, 20, 15}, lb_params(),
                                      Method::kLatticeBoltzmann, 3, threads);
  Rng rng(7);
  const int g = d->ghost();
  for (int i = 0; i < kQ; ++i)
    for (int y = -g; y < d->ny() + g; ++y)
      for (int x = -g; x < d->nx() + g; ++x)
        d->f(i)(x, y) = rng.uniform(0.05, 0.2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  d->rho().fill(nan);
  d->vx().fill(nan);
  d->vy().fill(nan);
  return d;
}

/// rho, vx and vy are written (not NaN) exactly where `expect(x, y)`
/// holds, over the whole padded window.
template <typename Pred>
void expect_written_where(const Domain2D& d, Pred expect, const char* when) {
  const int g = d.ghost();
  for (int y = -g; y < d.ny() + g; ++y)
    for (int x = -g; x < d.nx() + g; ++x) {
      const bool want = expect(x, y);
      for (const PaddedField2D<double>* u : {&d.rho(), &d.vx(), &d.vy()})
        EXPECT_EQ(!std::isnan((*u)(x, y)), want)
            << when << " at (" << x << ", " << y << ")";
    }
}

TEST(Lbm2D, MomentsPassesSplitInteriorFromGhostRing) {
  // The overlap schedule computes the interior moments while the
  // population frames are in flight and the ghost ring's once they have
  // arrived: kInterior must write every non-wall interior node and
  // nothing of the ring, kBand exactly the ring, and the two together
  // must be kFull bit for bit, at one thread and with the worker pool.
  const Mask2D mask = ring_mask();
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    auto split = poisoned_domain(mask, threads);
    auto whole = poisoned_domain(mask, threads);
    const Domain2D& d = *split;
    const auto wall = [&](int x, int y) {
      return d.node(x, y) == NodeType::kWall;
    };
    const auto interior = [&](int x, int y) {
      return x >= 0 && x < d.nx() && y >= 0 && y < d.ny();
    };

    run_compute(*split, ComputeKind::kLbMoments, ComputePass::kInterior);
    expect_written_where(
        d, [&](int x, int y) { return interior(x, y) && !wall(x, y); },
        "after kInterior");
    run_compute(*split, ComputeKind::kLbMoments, ComputePass::kBand);
    expect_written_where(d, [&](int x, int y) { return !wall(x, y); },
                         "after kBand");

    run_compute(*whole, ComputeKind::kLbMoments, ComputePass::kFull);
    expect_same_bits(split->rho(), whole->rho(), "rho");
    expect_same_bits(split->vx(), whole->vx(), "vx");
    expect_same_bits(split->vy(), whole->vy(), "vy");
  }
}

TEST(Lbm2D, MomentsMatchTheScalarLoopBitwise) {
  // The moments span loop carries `#pragma GCC ivdep` so that gcc
  // vectorises it.  The loop below is its scalar form (the same operation
  // tree, zero-weight terms included); both must give the same bits on
  // every padded node but a NaN's sign, with about one population in ten
  // a NaN, an infinity, -0.0, a subnormal or +-1e308.
  const Mask2D mask = ring_mask();
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    auto d = poisoned_domain(mask, threads);
    Rng values(13);
    const int g = d->ghost();
    for (int i = 0; i < kQ; ++i)
      for (int y = -g; y < d->ny() + g; ++y)
        for (int x = -g; x < d->nx() + g; ++x)
          d->f(i)(x, y) = test::value_or_special(values, 0.05, 0.2);
    PaddedField2D<double> rho = d->rho(), vx = d->vx(), vy = d->vy();
    const FlushSubnormals flush;  // the FP mode the kernels run in
    for (int y = -g; y < d->ny() + g; ++y)
      for (int x = -g; x < d->nx() + g; ++x) {
        if (d->node(x, y) == NodeType::kWall) continue;
        double r = 0.0, mx = 0.0, my = 0.0;
        for (int i = 0; i < kQ; ++i) {
          const double fi = d->f(i)(x, y);
          r += fi;
          mx += kCx[i] * fi;
          my += kCy[i] * fi;
        }
        rho(x, y) = r;
        vx(x, y) = mx / r;
        vy(x, y) = my / r;
      }
    lbm::moments(*d);
    test::expect_same_bits_any_nan(d->rho(), rho, "rho");
    test::expect_same_bits_any_nan(d->vx(), vx, "vx");
    test::expect_same_bits_any_nan(d->vy(), vy, "vy");
  }
}

TEST(Lbm2D, CollideStreamBandThenInteriorIsTheWholeSweep) {
  // The sweep does not split: kBand runs it whole and kInterior is empty,
  // so band then interior is kFull bit for bit — in place on one slab at
  // one thread (two steps, so the view origin moves both ways) and as the
  // two-slab ping-pong at three.
  const Mask2D mask = ring_mask();
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    auto split = poisoned_domain(mask, threads);
    auto whole = poisoned_domain(mask, threads);
    for (int step = 0; step < 2; ++step) {
      lbm::moments(*split);
      lbm::moments(*whole);
      run_compute(*split, ComputeKind::kLbCollideStream,
                    ComputePass::kBand);
      run_compute(*split, ComputeKind::kLbCollideStream,
                    ComputePass::kInterior);
      run_compute(*whole, ComputeKind::kLbCollideStream,
                    ComputePass::kFull);
      for (int i = 0; i < kQ; ++i)
        expect_same_bits(split->f(i), whole->f(i), "population");
    }
  }
}

TEST(Lbm2D, OneThreadDomainHoldsOnePopulationSlab) {
  // Only the two-slab sweep of a multi-thread domain streams into f_next;
  // a one-thread domain sweeps in place and allocates no second slab.
  const Mask2D mask(Extents2{16, 12}, 1);
  const Box2 box{0, 0, 16, 12};
  Domain2D one(mask, box, lb_params(), Method::kLatticeBoltzmann, 1, 1);
  EXPECT_FALSE(one.has_f_next());
  EXPECT_THROW(one.f_next(0), contract_error);
  EXPECT_THROW(one.swap_populations(), contract_error);
  Domain2D three(mask, box, lb_params(), Method::kLatticeBoltzmann, 1, 3);
  EXPECT_TRUE(three.has_f_next());
  EXPECT_NO_THROW(three.f_next(0));
}

}  // namespace
}  // namespace subsonic
