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
#include "src/util/fp_env.hpp"
#include "src/util/rng.hpp"
#include "tests/support/bitwise.hpp"

namespace subsonic {
namespace {

using lbm3d::kCx;
using lbm3d::kCy;
using lbm3d::kCz;
using lbm3d::kOpposite;
using lbm3d::kQ;
using lbm3d::kW;
using test::expect_same_bits;

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

/// A 14x12x10 mask whose walls cross the ghost ring of the domain box
/// below, sit inside its interior and fill one corner of its ring.
Mask3D ring_mask() {
  Mask3D mask(Extents3{14, 12, 10}, 3);
  mask.fill_box({1, 1, 1, 5, 5, 5}, NodeType::kWall);
  mask.fill_box({7, 5, 4, 9, 7, 6}, NodeType::kWall);
  mask.fill_box({11, 9, 7, 14, 12, 10}, NodeType::kWall);
  return mask;
}

/// The {3, 3, 3, 11, 9, 7} box of ring_mask() at ghost 3 (its padded
/// window is the whole grid), with the same random populations on every
/// padded node and NaN in rho, vx, vy and vz.
std::unique_ptr<Domain3D> poisoned_domain(const Mask3D& mask, int threads) {
  auto d = std::make_unique<Domain3D>(mask, Box3{3, 3, 3, 11, 9, 7},
                                      lb_params(), Method::kLatticeBoltzmann,
                                      3, threads);
  Rng rng(7);
  const int g = d->ghost();
  for (int i = 0; i < kQ; ++i)
    for (int z = -g; z < d->nz() + g; ++z)
      for (int y = -g; y < d->ny() + g; ++y)
        for (int x = -g; x < d->nx() + g; ++x)
          d->f(i)(x, y, z) = rng.uniform(0.02, 0.1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (PaddedField3D<double>* u : {&d->rho(), &d->vx(), &d->vy(), &d->vz()})
    u->fill(nan);
  return d;
}

/// rho, vx, vy and vz are written (not NaN) exactly where
/// `expect(x, y, z)` holds, over the whole padded window.
template <typename Pred>
void expect_written_where(const Domain3D& d, Pred expect, const char* when) {
  const int g = d.ghost();
  for (int z = -g; z < d.nz() + g; ++z)
    for (int y = -g; y < d.ny() + g; ++y)
      for (int x = -g; x < d.nx() + g; ++x) {
        const bool want = expect(x, y, z);
        for (const PaddedField3D<double>* u :
             {&d.rho(), &d.vx(), &d.vy(), &d.vz()})
          EXPECT_EQ(!std::isnan((*u)(x, y, z)), want)
              << when << " at (" << x << ", " << y << ", " << z << ")";
      }
}

TEST(Lbm3D, MomentsPassesSplitInteriorFromGhostRing) {
  // As in 2D: kInterior writes every non-wall interior node and nothing
  // of the ring, kBand exactly the ring, and together they are kFull bit
  // for bit, at one thread and with the worker pool.
  const Mask3D mask = ring_mask();
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    auto split = poisoned_domain(mask, threads);
    auto whole = poisoned_domain(mask, threads);
    const Domain3D& d = *split;
    const auto wall = [&](int x, int y, int z) {
      return d.node(x, y, z) == NodeType::kWall;
    };
    const auto interior = [&](int x, int y, int z) {
      return x >= 0 && x < d.nx() && y >= 0 && y < d.ny() && z >= 0 &&
             z < d.nz();
    };

    run_compute(*split, ComputeKind::kLbMoments, ComputePass::kInterior);
    expect_written_where(
        d,
        [&](int x, int y, int z) {
          return interior(x, y, z) && !wall(x, y, z);
        },
        "after kInterior");
    run_compute(*split, ComputeKind::kLbMoments, ComputePass::kBand);
    expect_written_where(
        d, [&](int x, int y, int z) { return !wall(x, y, z); },
        "after kBand");

    run_compute(*whole, ComputeKind::kLbMoments, ComputePass::kFull);
    expect_same_bits(split->rho(), whole->rho(), "rho");
    expect_same_bits(split->vx(), whole->vx(), "vx");
    expect_same_bits(split->vy(), whole->vy(), "vy");
    expect_same_bits(split->vz(), whole->vz(), "vz");
  }
}

TEST(Lbm3D, MomentsMatchTheScalarLoopBitwise) {
  // As in 2D: the ivdep-vectorised moments loop against its scalar form,
  // zero-weight terms included, with corner-case populations seeded.
  const Mask3D mask = ring_mask();
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    auto d = poisoned_domain(mask, threads);
    Rng values(14);
    const int g = d->ghost();
    for (int i = 0; i < kQ; ++i)
      for (int z = -g; z < d->nz() + g; ++z)
        for (int y = -g; y < d->ny() + g; ++y)
          for (int x = -g; x < d->nx() + g; ++x)
            d->f(i)(x, y, z) = test::value_or_special(values, 0.02, 0.1);
    PaddedField3D<double> rho = d->rho(), vx = d->vx(), vy = d->vy(),
                          vz = d->vz();
    const FlushSubnormals flush;  // the FP mode the kernels run in
    for (int z = -g; z < d->nz() + g; ++z)
      for (int y = -g; y < d->ny() + g; ++y)
        for (int x = -g; x < d->nx() + g; ++x) {
          if (d->node(x, y, z) == NodeType::kWall) continue;
          double r = 0.0, mx = 0.0, my = 0.0, mz = 0.0;
          for (int i = 0; i < kQ; ++i) {
            const double fi = d->f(i)(x, y, z);
            r += fi;
            mx += kCx[i] * fi;
            my += kCy[i] * fi;
            mz += kCz[i] * fi;
          }
          rho(x, y, z) = r;
          vx(x, y, z) = mx / r;
          vy(x, y, z) = my / r;
          vz(x, y, z) = mz / r;
        }
    lbm::moments(*d);
    test::expect_same_bits_any_nan(d->rho(), rho, "rho");
    test::expect_same_bits_any_nan(d->vx(), vx, "vx");
    test::expect_same_bits_any_nan(d->vy(), vy, "vy");
    test::expect_same_bits_any_nan(d->vz(), vz, "vz");
  }
}

TEST(Lbm3D, CollideStreamBandThenInteriorIsTheWholeSweep) {
  // The sweep does not split: kBand runs it whole and kInterior is empty,
  // so band then interior is kFull bit for bit, at one and three threads.
  const Mask3D mask = ring_mask();
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

}  // namespace
}  // namespace subsonic
