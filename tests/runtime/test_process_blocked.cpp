// The over-decomposed process runtime: per-block checkpoints, segmented
// supervision, telemetry-driven dynamic load balancing — all bitwise
// against serial.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/runtime/gather.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/runtime/supervisor.hpp"
#include "src/util/check.hpp"
#include "tests/support/workdir.hpp"

namespace subsonic {
namespace {

Mask2D closed_box(int nx, int ny, int ghost) {
  Mask2D mask(Extents2{nx, ny}, ghost);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
  mask.fill_box({12, 8, 18, 14}, NodeType::kWall);  // obstacle
  return mask;
}

/// Bitwise comparison of the blocked gather against an uninterrupted
/// serial run.
void expect_blocked_matches_serial(const Mask2D& mask, const FluidParams& p,
                                   Method method, int block_side, int steps,
                                   const std::string& workdir) {
  SerialDriver<2> serial(mask, p, method);
  serial.run(steps);
  const GatheredFields2D g =
      gather_fields2d_blocked(mask, p, method, 2, 2, block_side, workdir);
  EXPECT_EQ(g.step, steps);
  for (int y = 0; y < mask.extents().ny; ++y)
    for (int x = 0; x < mask.extents().nx; ++x) {
      ASSERT_EQ(g.rho(x, y), serial.domain().rho()(x, y)) << x << "," << y;
      ASSERT_EQ(g.vx(x, y), serial.domain().vx()(x, y)) << x << "," << y;
      ASSERT_EQ(g.vy(x, y), serial.domain().vy()(x, y)) << x << "," << y;
    }
}

TEST(BlockedProcessRuntime, ForkedBlockedRunMatchesSerialBitwise) {
  ::unsetenv("SUBSONIC_FAULTS");
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("procblk_equiv");
  ProcessRunOptions options;
  options.block_side = 8;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.final_step, 12);
  EXPECT_GT(r.blocks, 4);  // genuinely over-decomposed
  EXPECT_EQ(r.block_owner.size(), static_cast<size_t>(r.blocks));
  EXPECT_TRUE(r.rebalances.empty());  // rebalancing was off
  expect_blocked_matches_serial(mask, p, Method::kLatticeBoltzmann, 8, 12,
                                workdir);
}

TEST(BlockedProcessRuntime, RepeatedCallsResumeFromTheBlockDumps) {
  ::unsetenv("SUBSONIC_FAULTS");
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("procblk_resume");
  ProcessRunOptions options;
  options.block_side = 8;
  run_supervised<2>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 6,
                    workdir, options);
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 6, workdir,
      options);
  EXPECT_EQ(r.final_step, 12);
  expect_blocked_matches_serial(mask, p, Method::kLatticeBoltzmann, 8, 12,
                                workdir);
}

TEST(BlockedProcessRuntime, ThreeDimensionalBlockedRunMatchesSerialBitwise) {
  ::unsetenv("SUBSONIC_FAULTS");
  Mask3D mask(Extents3{16, 12, 10}, 1);
  mask.fill_box({6, 4, 3, 10, 8, 7}, NodeType::kWall);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("procblk_equiv3d");
  ProcessRunOptions options;
  options.block_side = 6;
  const ProcessRunResult r = run_supervised<3>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 6, workdir,
      options);
  EXPECT_EQ(r.final_step, 6);
  SerialDriver<3> serial(mask, p, Method::kLatticeBoltzmann);
  serial.run(6);
  const GatheredFields3D g = gather_fields3d_blocked(
      mask, p, Method::kLatticeBoltzmann, 2, 1, 1, 6, workdir);
  EXPECT_EQ(g.step, 6);
  for (int z = 0; z < 10; ++z)
    for (int y = 0; y < 12; ++y)
      for (int x = 0; x < 16; ++x) {
        ASSERT_EQ(g.rho(x, y, z), serial.domain().rho()(x, y, z));
        ASSERT_EQ(g.vz(x, y, z), serial.domain().vz()(x, y, z));
      }
}

TEST(BlockedProcessRuntime, OverlapExchangeWaitsFeedTheCommHistogram) {
  // Under the overlap schedule every exchange is split into posted sends
  // and a receive-completion wait; that wait is the step's exposed comm
  // latency and must land in the comm.exchange histogram once per step,
  // or /status and run_summary.json show no comm percentiles.
  ::unsetenv("SUBSONIC_FAULTS");
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("procblk_commhist");
  ProcessRunOptions options;
  options.block_side = 8;
  const int steps = 9;  // LB: one exchange per step
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, steps, workdir,
      options);
  ASSERT_EQ(r.rank_metrics.size(), 2u);
  for (const telemetry::RankMetrics& rm : r.rank_metrics) {
    const auto it = rm.histograms.find("comm.exchange");
    ASSERT_NE(it, rm.histograms.end()) << "rank " << rm.rank;
    EXPECT_EQ(it->second.count, steps) << "rank " << rm.rank;
  }
}

TEST(BlockedProcessRuntime, RebalancingRequiresTheBlockedRuntime) {
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("procblk_guard");
  ProcessRunOptions options;
  options.rebalance_interval = 4;  // but block_side = 0: monolithic
  EXPECT_THROW(run_supervised<2>(mask, p, Method::kLatticeBoltzmann,
                                 GridShape{2, 1, 1}, 4, workdir, options),
               contract_error);
}

// The load-imbalance smoke test CI runs: one rank is delay-injected to
// several times its natural step cost, the supervisor must notice and move
// blocks off it, and the final fields must still match an undelayed run
// bitwise (block assignment can never affect results).
TEST(BlockedProcessRuntime, SlowRankTriggersRebalanceAndStaysBitwise) {
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("procblk_rebalance");
  ProcessRunOptions options;
  options.block_side = 8;
  options.rebalance_interval = 8;
  options.rebalance_threshold = 1.3;
  options.faults = "slow:rank=0,permille=3000";  // rank 0 at 1/4 speed
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 24, workdir,
      options);
  EXPECT_EQ(r.final_step, 24);
  EXPECT_EQ(r.restarts, 0);  // segments are clean exits, not crashes
  ASSERT_GE(r.rebalances.size(), 1u);
  EXPECT_GT(r.rebalances[0].moved_blocks, 0);
  EXPECT_GE(r.rebalances[0].imbalance_before, options.rebalance_threshold);
  // The new map still covers every block, and rank 0 lost blocks.
  int rank0_after = 0;
  for (int owner : r.block_owner)
    if (owner == 0) ++rank0_after;
  EXPECT_GE(rank0_after, 1);
  EXPECT_LT(rank0_after, r.blocks / 4);
  // run_summary.json logs the events.
  std::ifstream in(r.summary_path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"rebalances\""), std::string::npos);
  EXPECT_NE(text.str().find("\"imbalance_before\""), std::string::npos);
  expect_blocked_matches_serial(mask, p, Method::kLatticeBoltzmann, 8, 24,
                                workdir);
}

TEST(BlockedProcessRuntime, HungRankRecoversSurgicallyAndStaysBitwise) {
  // The liveness layer runs per segment in the blocked runtime too: a
  // rank that livelocks mid-segment is put down and surgically restarted
  // from the newest committed per-block epoch, the survivors roll back
  // in-process, and the gathered fields stay bitwise.
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_HEARTBEAT_MS");
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("procblk_hang");
  ProcessRunOptions options;
  options.block_side = 8;
  options.checkpoint_interval = 4;
  options.faults = "hang:rank=1,step=7";
  options.liveness.heartbeat_floor_ms = 400;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.final_step, 12);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.forks, 5);  // 4 spawns + 1 surgical respawn
  bool saw_hang = false, saw_restart = false;
  int rollbacks = 0;
  for (const telemetry::LivenessRecord& rec : r.liveness) {
    if (rec.event == "hang_detected" && rec.rank == 1) saw_hang = true;
    if (rec.event == "restart" && rec.rank == 1) saw_restart = true;
    if (rec.event == "rollback") ++rollbacks;
  }
  EXPECT_TRUE(saw_hang);
  EXPECT_TRUE(saw_restart);
  EXPECT_EQ(rollbacks, 3);  // every survivor, exactly once
  expect_blocked_matches_serial(mask, p, Method::kLatticeBoltzmann, 8, 12,
                                workdir);
}

TEST(BlockedProcessRuntime, KillAfterRebalanceRestoresFromCommittedEpoch) {
  // A rank dies in the third segment, after the slow fault has already
  // forced at least one rebalance.  The supervisor must respawn from the
  // newest committed per-block epoch under the rebalanced owner map and
  // still finish bit-identically.
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("procblk_killreb");
  ProcessRunOptions options;
  options.block_side = 8;
  options.checkpoint_interval = 2;
  options.rebalance_interval = 6;
  options.rebalance_threshold = 1.3;
  // Segment cohorts are generations 0,1,2,... — gen 2 is steps 12..18.
  options.faults = "slow:rank=0,permille=3000;kill:rank=1,step=16,gen=2";
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 24, workdir,
      options);
  EXPECT_EQ(r.final_step, 24);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_GE(r.rebalances.size(), 1u);
  EXPECT_GE(r.committed_epoch, 0);
  expect_blocked_matches_serial(mask, p, Method::kLatticeBoltzmann, 8, 24,
                                workdir);
}

TEST(BlockedProcessRuntime, KillOffTheCheckpointGridRestoresTheBoundaryEpoch) {
  // Segments of 5 steps against checkpoints every 2: the boundaries at
  // steps 5 and 15 are captured off the grid, so epoch ids follow the
  // captures, not the step.  Segment 1 captures steps 2, 4, 5 (epochs
  // 0-2), segment 2 steps 6, 8, 10 (3-5).  A rank killed at step 11, in
  // the third segment and before its first capture, must come back from
  // the boundary epoch 5 under the rebalanced owner map, bitwise.
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("procblk_offgrid");
  ProcessRunOptions options;
  options.block_side = 8;
  options.checkpoint_interval = 2;
  options.rebalance_interval = 5;
  options.rebalance_threshold = 1.3;
  // Segment cohorts are generations 0,1,2,... — gen 2 is steps 10..15.
  options.faults = "slow:rank=0,permille=3000;kill:rank=1,step=11,gen=2";
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 20, workdir,
      options);
  EXPECT_EQ(r.final_step, 20);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_GE(r.rebalances.size(), 1u);
  int restarts_from_the_boundary = 0;
  for (const telemetry::LivenessRecord& rec : r.liveness)
    if (rec.event == "restart" && rec.rank == 1 && rec.epoch == 5)
      ++restarts_from_the_boundary;
  EXPECT_EQ(restarts_from_the_boundary, 1);
  // Steps 12, 14, 15 (6-8), 16, 18, 20 (9-11).
  EXPECT_EQ(r.committed_epoch, 11);
  expect_blocked_matches_serial(mask, p, Method::kLatticeBoltzmann, 8, 20,
                                workdir);
}

}  // namespace
}  // namespace subsonic
