// The supervised process runtime in three dimensions: the same Cohort
// pipeline as 2D (run_supervised<3>), so the
// whole fault-tolerance contract — kill/respawn from the newest committed
// epoch, torn dumps never committed, fail-fast on an exhausted budget —
// must hold with 3D subdomains and D3Q15 state.  Mirrors test_process2d.
#include "src/runtime/supervisor.hpp"

#include <cerrno>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "src/io/checkpoint.hpp"
#include "src/runtime/epoch_store.hpp"
#include "src/runtime/gather.hpp"
#include "src/runtime/serial_driver.hpp"
#include "tests/support/workdir.hpp"

namespace subsonic {
namespace {

Mask3D closed_box3d(int nx, int ny, int nz, int ghost) {
  Mask3D mask(Extents3{nx, ny, nz}, ghost);
  mask.fill_box({0, 0, 0, nx, ny, 1}, NodeType::kWall);
  mask.fill_box({0, 0, nz - 1, nx, ny, nz}, NodeType::kWall);
  mask.fill_box({0, 0, 0, nx, 1, nz}, NodeType::kWall);
  mask.fill_box({0, ny - 1, 0, nx, ny, nz}, NodeType::kWall);
  mask.fill_box({0, 0, 0, 1, ny, nz}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, 0, nx, ny, nz}, NodeType::kWall);
  mask.fill_box({6, 4, 3, 10, 8, 6}, NodeType::kWall);  // obstacle
  return mask;
}

/// Bitwise comparison of the committed epoch a (jx x jy x jz) run ended
/// in against a serial run.
void expect_matches_serial3d(const Mask3D& mask, const FluidParams& p,
                             Method method, int jx, int jy, int jz,
                             int steps, const std::string& workdir) {
  SerialDriver<3> serial(mask, p, method);
  serial.run(steps);
  const GatheredFields3D g =
      gather_fields3d(mask, p, method, jx, jy, jz, workdir);
  EXPECT_EQ(g.step, steps);
  const Extents3 e = mask.extents();
  for (int z = 0; z < e.nz; ++z)
    for (int y = 0; y < e.ny; ++y)
      for (int x = 0; x < e.nx; ++x) {
        ASSERT_EQ(g.rho(x, y, z), serial.domain().rho()(x, y, z))
            << x << "," << y << "," << z;
        ASSERT_EQ(g.vz(x, y, z), serial.domain().vz()(x, y, z))
            << x << "," << y << "," << z;
      }
}

TEST(Process3DRuntime, ForkedProcessesMatchSerialBitwise) {
  const int nx = 16, ny = 12, nz = 10;
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  const Mask3D mask = closed_box3d(nx, ny, nz, 1);

  const std::string workdir = test::fresh_workdir("proc3d_equiv");
  const ProcessRunResult r = run_supervised<3>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 10, workdir, {});
  EXPECT_EQ(r.processes, 4);
  EXPECT_EQ(r.final_step, 10);
  expect_matches_serial3d(mask, p, Method::kLatticeBoltzmann, 2, 2, 1, 10,
                          workdir);
}

TEST(Process3DRuntime, RepeatedCallsResumeFromTheDumps) {
  FluidParams p;
  p.dt = 1.0;
  const Mask3D mask = closed_box3d(14, 10, 8, 1);
  const std::string workdir = test::fresh_workdir("proc3d_resume");
  run_supervised<3>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 5,
                    workdir, {});
  const ProcessRunResult r = run_supervised<3>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 5, workdir, {});
  EXPECT_EQ(r.final_step, 10);
  expect_matches_serial3d(mask, p, Method::kLatticeBoltzmann, 2, 1, 1, 10,
                          workdir);
}

TEST(Process3DSupervisor, KilledRankRestartsFromNewestEpochBitwiseLB) {
  const Mask3D mask = closed_box3d(16, 12, 10, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("proc3d_killlb");
  ProcessRunOptions options;
  options.checkpoint_interval = 4;
  options.faults = "kill:rank=1,step=7";
  const ProcessRunResult r = run_supervised<3>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.final_step, 12);
  EXPECT_GE(r.committed_epoch, 0);  // epoch 0 (step 4) survived the crash
  expect_matches_serial3d(mask, p, Method::kLatticeBoltzmann, 2, 1, 1, 12,
                          workdir);
}

TEST(Process3DSupervisor, KilledRankRestartsFromNewestEpochBitwiseFD) {
  const Mask3D mask = closed_box3d(16, 12, 10, 1);
  FluidParams p;
  p.dt = 0.3;
  p.nu = 0.05;
  const std::string workdir = test::fresh_workdir("proc3d_killfd");
  ProcessRunOptions options;
  options.checkpoint_interval = 3;
  options.faults = "kill:rank=0,step=8";
  const ProcessRunResult r = run_supervised<3>(
      mask, p, Method::kFiniteDifference, GridShape{1, 2, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.final_step, 12);
  expect_matches_serial3d(mask, p, Method::kFiniteDifference, 1, 2, 1, 12,
                          workdir);
}

TEST(Process3DSupervisor, TornDumpIsNeverCommittedAndRecoveryIsBitwise) {
  const Mask3D mask = closed_box3d(16, 12, 10, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("proc3d_torn");
  ProcessRunOptions options;
  options.checkpoint_interval = 3;
  options.faults = "torn_dump:rank=0,epoch=1";
  const ProcessRunResult r = run_supervised<3>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.restarts, 1);
  expect_matches_serial3d(mask, p, Method::kLatticeBoltzmann, 2, 1, 1, 12,
                          workdir);
}

TEST(Process3DSupervisor, ExhaustedBudgetFailsFastWithReapedChildren) {
  const Mask3D mask = closed_box3d(14, 10, 8, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("proc3d_budget0");
  ProcessRunOptions options;
  options.max_restarts = 0;
  options.recv_deadline_ms = 5000;
  options.faults = "kill:rank=1,step=2";
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_supervised<3>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1},
                      50, workdir, options);
    FAIL() << "supervisor returned despite a dead rank and zero budget";
  } catch (const ProcessRunError& e) {
    bool saw_rank1 = false;
    for (const RankFailure& f : e.failures)
      if (f.rank == 1) {
        saw_rank1 = true;
        EXPECT_NE(f.detail.find("signal"), std::string::npos) << f.detail;
      }
    EXPECT_TRUE(saw_rank1) << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2 * 5000);
  EXPECT_FALSE(std::filesystem::exists(workdir + "/cohort.spec"));
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(Process3DSupervisor, HungRankIsSurgicallyRestartedBitwise) {
  // The liveness layer is dimension-generic: a 3D rank that livelocks is
  // detected by heartbeat silence, put down, and surgically restarted
  // while its neighbour rolls back in-process — bitwise vs serial.
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_HEARTBEAT_MS");
  const Mask3D mask = closed_box3d(16, 12, 10, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("proc3d_hang");
  ProcessRunOptions options;
  options.checkpoint_interval = 3;
  options.faults = "hang:rank=1,step=5";
  options.liveness.heartbeat_floor_ms = 400;
  const ProcessRunResult r = run_supervised<3>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 10, workdir,
      options);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.final_step, 10);
  EXPECT_EQ(r.forks, 3);  // 2 spawns + 1 surgical respawn
  bool saw_hang = false, saw_restart = false;
  for (const telemetry::LivenessRecord& rec : r.liveness) {
    if (rec.event == "hang_detected" && rec.rank == 1) saw_hang = true;
    if (rec.event == "restart" && rec.rank == 1) saw_restart = true;
  }
  EXPECT_TRUE(saw_hang);
  EXPECT_TRUE(saw_restart);
  expect_matches_serial3d(mask, p, Method::kLatticeBoltzmann, 2, 1, 1, 10,
                          workdir);
}

TEST(Process3DSupervisor, StaleTwoDArtifactsCannotPoisonAThreeDRun) {
  // A 2D run and a 3D run sharing a workdir collide on every artifact
  // name (the MANIFEST, and block 0 is block 0 in both).  The start-of-run
  // rule must discard the other dimension's committed epoch instead of
  // resuming from it, so the 3D run starts from step 0 and finishes
  // bit-identical to a 3D run in a fresh directory.
  const std::string workdir = test::fresh_workdir("proc3d_stale2d");

  FluidParams p2;
  p2.dt = 1.0;
  Mask2D mask2(Extents2{24, 18}, 1);
  mask2.fill_box({0, 0, 24, 1}, NodeType::kWall);
  mask2.fill_box({0, 17, 24, 18}, NodeType::kWall);
  mask2.fill_box({0, 0, 1, 18}, NodeType::kWall);
  mask2.fill_box({23, 0, 24, 18}, NodeType::kWall);
  ProcessRunOptions options2;
  options2.checkpoint_interval = 2;  // ends in epoch 2, not the 3D run's 0
  const ProcessRunResult r2 =
      run_supervised<2>(mask2, p2, Method::kLatticeBoltzmann,
                        GridShape{2, 1, 1}, 6, workdir, options2);
  const std::string dump2 =
      epoch::block_dump_path(workdir, 0, r2.committed_epoch);
  {
    const auto m = epoch::read_manifest(workdir);
    ASSERT_TRUE(m);
    ASSERT_EQ(m->blocks, (std::vector<int>{0, 1}));  // the 3D run's blocks
    ASSERT_EQ(inspect_checkpoint(dump2).dim, 2);  // the poison is in place
  }

  FluidParams p;
  p.dt = 1.0;
  const Mask3D mask = closed_box3d(14, 10, 8, 1);
  const ProcessRunResult r = run_supervised<3>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 8, workdir, {});
  // A resume from the 2D epoch would have reported final_step == 14.
  EXPECT_EQ(r.final_step, 8);
  const auto m = epoch::read_manifest(workdir);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->epoch, 0);
  EXPECT_EQ(m->step, 8);
  EXPECT_EQ(
      inspect_checkpoint(epoch::block_dump_path(workdir, 0, m->epoch)).dim,
      3);
  EXPECT_FALSE(std::filesystem::exists(dump2));  // discarded, not kept
  expect_matches_serial3d(mask, p, Method::kLatticeBoltzmann, 2, 1, 1, 8,
                          workdir);
}

}  // namespace
}  // namespace subsonic
