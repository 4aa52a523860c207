// gather_fields: the supervised runtime's dump files double as the
// result-gathering mechanism — reassembling the committed epoch a run
// ends in must reproduce the serial fields bit for bit, in both
// dimensions.
#include "src/runtime/gather.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/io/checkpoint.hpp"
#include "src/runtime/epoch_store.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/runtime/supervisor.hpp"
#include "src/util/check.hpp"
#include "tests/support/workdir.hpp"

namespace subsonic {
namespace {

Mask2D walled_box2d(int nx, int ny, int ghost) {
  Mask2D mask(Extents2{nx, ny}, ghost);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
  mask.fill_box({12, 8, 18, 14}, NodeType::kWall);  // obstacle
  return mask;
}

Mask3D walled_box3d(int nx, int ny, int nz, int ghost) {
  Mask3D mask(Extents3{nx, ny, nz}, ghost);
  mask.fill_box({0, 0, 0, nx, ny, 1}, NodeType::kWall);
  mask.fill_box({0, 0, nz - 1, nx, ny, nz}, NodeType::kWall);
  mask.fill_box({0, 0, 0, nx, 1, nz}, NodeType::kWall);
  mask.fill_box({0, ny - 1, 0, nx, ny, nz}, NodeType::kWall);
  mask.fill_box({0, 0, 0, 1, ny, nz}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, 0, nx, ny, nz}, NodeType::kWall);
  mask.fill_box({6, 4, 3, 10, 8, 6}, NodeType::kWall);
  return mask;
}

TEST(GatherFields, RoundTrips2DRunToExactSerialFields) {
  const int nx = 36, ny = 24;
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  p.inlet_vx = 0.06;
  Mask2D mask = walled_box2d(nx, ny, 1);
  mask.fill_box({0, 10, 1, 14}, NodeType::kInlet);
  mask.fill_box({nx - 1, 10, nx, 14}, NodeType::kOutlet);

  const std::string workdir = test::fresh_workdir("gather_round2d");
  run_supervised<2>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 10,
                    workdir, {});
  const GatheredFields2D g =
      gather_fields2d(mask, p, Method::kLatticeBoltzmann, 2, 2, workdir);
  EXPECT_EQ(g.step, 10);

  SerialDriver<2> serial(mask, p, Method::kLatticeBoltzmann);
  serial.run(10);
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) {
      ASSERT_EQ(g.rho(x, y), serial.domain().rho()(x, y)) << x << "," << y;
      ASSERT_EQ(g.vx(x, y), serial.domain().vx()(x, y)) << x << "," << y;
      ASSERT_EQ(g.vy(x, y), serial.domain().vy()(x, y)) << x << "," << y;
    }
}

TEST(GatherFields, ReadsACommittedEpochNotJustTheFinalDumps) {
  // Exact epoch accounting; a CI-injected fault would shift which epochs
  // exist, so pin the run fault-free.
  ::unsetenv("SUBSONIC_FAULTS");
  const Mask2D mask = walled_box2d(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("gather_epoch2d");
  ProcessRunOptions options;
  options.checkpoint_interval = 3;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 12, workdir,
      options);
  // Captures at steps 3, 6, 9 and the final state at 12 -> epochs 0..3;
  // the GC keeps only the newest epoch's dumps.
  ASSERT_EQ(r.committed_epoch, 3);

  // A newer epoch that never committed — a valid dump of block 0 at step
  // 0, as a crash past the last commit could leave — must not be read.
  const Box2 box0{0, 0, 12, 18};
  Domain2D stale(mask, box0, p, Method::kLatticeBoltzmann, 1);
  save_domain(stale, epoch::block_dump_path(workdir, 0, r.committed_epoch + 1));

  const GatheredFields2D g =
      gather_fields2d(mask, p, Method::kLatticeBoltzmann, 2, 1, workdir);
  EXPECT_EQ(g.step, 12);
  SerialDriver<2> serial(mask, p, Method::kLatticeBoltzmann);
  serial.run(12);
  for (int y = 0; y < 18; ++y)
    for (int x = 0; x < 24; ++x)
      ASSERT_EQ(g.rho(x, y), serial.domain().rho()(x, y)) << x << "," << y;
}

TEST(GatherFields, InactiveSubregionsGatherAsQuiescentState) {
  // The left third and the column beside it are solid: rank 0 borders no
  // fluid.
  Mask2D mask = walled_box2d(30, 20, 1);
  mask.fill_box({0, 0, 11, 20}, NodeType::kWall);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("gather_solid2d");
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{3, 1, 1}, 5, workdir, {});
  EXPECT_EQ(r.processes, 2);  // rank 0 is never spawned

  // No dump exists for the inactive rank; gather must fill its subregion
  // with the quiescent state instead of failing.
  const GatheredFields2D g =
      gather_fields2d(mask, p, Method::kLatticeBoltzmann, 3, 1, workdir);
  EXPECT_EQ(g.step, 5);
  EXPECT_EQ(g.rho(4, 10), p.rho0);
  EXPECT_EQ(g.vx(4, 10), 0.0);
  EXPECT_EQ(g.vy(4, 10), 0.0);
}

TEST(GatherFields, RoundTrips3DRunToExactSerialFields) {
  const int nx = 16, ny = 12, nz = 10;
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  const Mask3D mask = walled_box3d(nx, ny, nz, 1);

  const std::string workdir = test::fresh_workdir("gather_round3d");
  run_supervised<3>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 8,
                    workdir, {});
  const GatheredFields3D g = gather_fields3d(
      mask, p, Method::kLatticeBoltzmann, 2, 1, 1, workdir);
  EXPECT_EQ(g.step, 8);

  SerialDriver<3> serial(mask, p, Method::kLatticeBoltzmann);
  serial.run(8);
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) {
        ASSERT_EQ(g.rho(x, y, z), serial.domain().rho()(x, y, z))
            << x << "," << y << "," << z;
        ASSERT_EQ(g.vx(x, y, z), serial.domain().vx()(x, y, z))
            << x << "," << y << "," << z;
        ASSERT_EQ(g.vz(x, y, z), serial.domain().vz()(x, y, z))
            << x << "," << y << "," << z;
      }
}

TEST(GatherFields, RefusesAnEmptyDirectoryForEpochReads) {
  const Mask2D mask = walled_box2d(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("gather_empty");
  // No MANIFEST at all: there is no committed epoch to read.
  EXPECT_THROW(
      gather_fields2d(mask, p, Method::kLatticeBoltzmann, 2, 1, workdir),
      contract_error);
}

}  // namespace
}  // namespace subsonic
