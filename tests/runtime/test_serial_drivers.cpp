#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/flue_pipe.hpp"
#include "src/runtime/blocked_driver.hpp"
#include "src/runtime/serial_driver.hpp"

namespace subsonic {
namespace {

TEST(SerialDriver2D, StepCounterAdvances) {
  Mask2D mask(Extents2{8, 8}, 1);
  FluidParams p;
  p.dt = 1.0;
  SerialDriver<2> drv(mask, p, Method::kLatticeBoltzmann);
  EXPECT_EQ(drv.domain().step(), 0);
  drv.run(5);
  EXPECT_EQ(drv.domain().step(), 5);
  drv.run(3);
  EXPECT_EQ(drv.domain().step(), 8);
}

TEST(SerialDriver2D, PeriodicWrapFillsGhosts) {
  Mask2D mask(Extents2{8, 6}, 1);
  FluidParams p;
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> drv(mask, p, Method::kFiniteDifference);
  Domain2D& d = drv.domain();
  for (int y = 0; y < 6; ++y)
    for (int x = 0; x < 8; ++x) d.rho()(x, y) = 10.0 * x + y;
  drv.reinitialize();
  // Left ghost column equals the rightmost interior column, and corners
  // wrap both axes.
  for (int y = 0; y < 6; ++y)
    EXPECT_DOUBLE_EQ(d.rho()(-1, y), 10.0 * 7 + y);
  for (int x = 0; x < 8; ++x)
    EXPECT_DOUBLE_EQ(d.rho()(x, 6), 10.0 * x + 0);
  EXPECT_DOUBLE_EQ(d.rho()(-1, -1), 10.0 * 7 + 5);
  EXPECT_DOUBLE_EQ(d.rho()(8, 6), 10.0 * 0 + 0);
}

TEST(SerialDriver2D, NonPeriodicGhostsKeepStatics) {
  Mask2D mask(Extents2{6, 6}, 1);
  FluidParams p;
  p.rho0 = 1.5;
  SerialDriver<2> drv(mask, p, Method::kFiniteDifference);
  EXPECT_DOUBLE_EQ(drv.domain().rho()(-1, 3), 1.5);
  EXPECT_DOUBLE_EQ(drv.domain().vx()(6, 3), 0.0);
}

TEST(SerialDriver2D, ReinitializeReseedsLbPopulations) {
  Mask2D mask(Extents2{6, 6}, 1);
  FluidParams p;
  p.dt = 1.0;
  SerialDriver<2> drv(mask, p, Method::kLatticeBoltzmann);
  drv.domain().vx()(3, 3) = 0.05;
  drv.reinitialize();
  // Population 1 (toward +x) should now exceed population 3 (toward -x).
  EXPECT_GT(drv.domain().f(1)(3, 3), drv.domain().f(3)(3, 3));
}

TEST(SerialDriver3D, PeriodicWrapFillsGhostCorners) {
  Mask3D mask(Extents3{4, 4, 4}, 1);
  FluidParams p;
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  SerialDriver<3> drv(mask, p, Method::kFiniteDifference);
  Domain3D& d = drv.domain();
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 4; ++y)
      for (int x = 0; x < 4; ++x) d.rho()(x, y, z) = x + 10 * y + 100 * z;
  drv.reinitialize();
  EXPECT_DOUBLE_EQ(d.rho()(-1, 0, 0), 3.0);
  EXPECT_DOUBLE_EQ(d.rho()(0, -1, 0), 30.0);
  EXPECT_DOUBLE_EQ(d.rho()(0, 0, -1), 300.0);
  EXPECT_DOUBLE_EQ(d.rho()(-1, -1, -1), 3 + 30 + 300);
  EXPECT_DOUBLE_EQ(d.rho()(4, 4, 4), 0.0);
}

TEST(SerialDriver3D, StepCounterAdvances) {
  Mask3D mask(Extents3{5, 5, 5}, 1);
  FluidParams p;
  p.dt = 1.0;
  SerialDriver<3> drv(mask, p, Method::kLatticeBoltzmann);
  drv.run(4);
  EXPECT_EQ(drv.domain().step(), 4);
}

TEST(WorkerStats, AccumulateAcrossRuns) {
  Mask2D mask(Extents2{32, 32}, 1);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = true;
  BlockedDriver<2> drv(mask, p, Method::kLatticeBoltzmann,
                       GridShape{2, 2, 1}, 0);
  drv.run(10);
  const double after10 = drv.stats(0).compute_s;
  EXPECT_GT(after10, 0.0);
  EXPECT_GT(drv.stats(0).comm_s, 0.0);
  drv.run(10);
  EXPECT_GT(drv.stats(0).compute_s, after10);
  const double g = drv.stats(0).utilization();
  EXPECT_GT(g, 0.0);
  EXPECT_LE(g, 1.0);
}

TEST(WorkerStats, InactiveRankHasNoStats) {
  // Rank 0's subregion and the column beside it are solid: it borders no
  // fluid and runs no process.
  Mask2D mask(Extents2{30, 10}, 1);
  mask.fill_box({0, 0, 11, 10}, NodeType::kWall);
  FluidParams p;
  p.dt = 1.0;
  BlockedDriver<2> drv(mask, p, Method::kLatticeBoltzmann,
                       GridShape{3, 1, 1}, 0);
  EXPECT_THROW(drv.stats(0), contract_error);
  EXPECT_NO_THROW(drv.stats(1));
}

}  // namespace
}  // namespace subsonic
