// The fork()-based process runtime: real UNIX processes, real sockets,
// dump-file results — and still bit-identical to the serial run.
#include "src/runtime/supervisor.hpp"

#include <cerrno>
#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/decomp/decomposition.hpp"
#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
#include "src/io/checkpoint.hpp"
#include "src/runtime/gather.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/telemetry/summary.hpp"

namespace subsonic {
namespace {

std::string make_workdir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/proc2d_" +
                          name + "_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

Mask2D closed_box(int nx, int ny, int ghost) {
  Mask2D mask(Extents2{nx, ny}, ghost);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
  mask.fill_box({12, 8, 18, 14}, NodeType::kWall);  // obstacle
  return mask;
}

TEST(ProcessRuntime, ForkedProcessesMatchSerialBitwise) {
  const int nx = 36, ny = 24;
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  p.inlet_vx = 0.06;
  Mask2D mask = closed_box(nx, ny, 1);
  mask.fill_box({0, 10, 1, 14}, NodeType::kInlet);
  mask.fill_box({nx - 1, 10, nx, 14}, NodeType::kOutlet);

  SerialDriver<2> serial(mask, p, Method::kLatticeBoltzmann);
  serial.run(15);

  const std::string workdir = make_workdir("equiv");
  const ProcessRunResult r =
      run_supervised<2>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1},
                        15, workdir, {});
  EXPECT_EQ(r.processes, 4);
  EXPECT_EQ(r.final_step, 15);

  // Gather by restoring the dump files, as the parent would.
  const GatheredFields2D g = gather_fields2d(
      mask, p, Method::kLatticeBoltzmann, 2, 2, workdir);
  EXPECT_EQ(max_abs_diff(g.rho, serial.domain().rho()), 0.0);
  EXPECT_EQ(max_abs_diff(g.vx, serial.domain().vx()), 0.0);
  EXPECT_EQ(max_abs_diff(g.vy, serial.domain().vy()), 0.0);
}

TEST(ProcessRuntime, RepeatedCallsResumeFromTheDumps) {
  const int nx = 24, ny = 18;
  FluidParams p;
  p.dt = 1.0;
  const Mask2D mask = closed_box(nx, ny, 1);

  const std::string workdir = make_workdir("resume");
  run_supervised<2>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 6,
                    workdir, {});
  const ProcessRunResult r =
      run_supervised<2>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1},
                        6, workdir, {});
  EXPECT_EQ(r.final_step, 12);

  // ...and the two-burst run equals one uninterrupted serial run.  One
  // block per rank: block 1 is rank 1's subregion.
  SerialDriver<2> serial(mask, p, Method::kLatticeBoltzmann);
  serial.run(12);
  const Decomposition2D d(mask.extents(), 2, 1);
  Domain2D sub(mask, d.box(1), p, Method::kLatticeBoltzmann, 1);
  restore_domain(sub, workdir + "/block_1.dump");
  const Box2 b = d.box(1);
  for (int y = 0; y < b.height(); ++y)
    for (int x = 0; x < b.width(); ++x)
      ASSERT_EQ(sub.rho()(x, y),
                serial.domain().rho()(b.x0 + x, b.y0 + y));
}

TEST(ProcessRuntime, DropsAllSolidSubregions) {
  const int nx = 30, ny = 20;
  Mask2D mask = closed_box(nx, ny, 1);
  FluidParams p;
  p.dt = 1.0;
  {
    Mask2D solid = mask;
    solid.fill_box({0, 0, 10, 20}, NodeType::kWall);  // left third solid
    const std::string workdir = make_workdir("solid");
    const ProcessRunResult r =
        run_supervised<2>(solid, p, Method::kLatticeBoltzmann,
                          GridShape{3, 1, 1}, 5, workdir, {});
    EXPECT_EQ(r.processes, 2);  // rank 0 is entirely wall
  }
}

TEST(ProcessRuntime, OneBlockPerRankLeavesOneDumpPerActiveRank) {
  // block_side 0 (the default) runs one block per rank: block r is rank
  // r's subregion, an all-solid subregion has no block, and the final
  // state is exactly one block_<r>.dump per active rank.  The solid
  // reaches one column into rank 1: fluid directly on the face of an
  // all-solid subregion bounces off wall ghosts nobody updates, and
  // differs from serial by a few ulp in every parallel driver (an open
  // ROADMAP item, not a property of the block layout).
  ::unsetenv("SUBSONIC_FAULTS");
  Mask2D mask = closed_box(30, 20, 1);
  mask.fill_box({0, 0, 11, 20}, NodeType::kWall);  // rank 0 all solid
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("oneperrank");
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{3, 1, 1}, 7, workdir, {});
  EXPECT_EQ(r.processes, 2);
  EXPECT_EQ(r.blocks, 3);
  EXPECT_EQ(r.block_owner, (std::vector<int>{-1, 1, 2}));

  std::vector<std::string> dumps;
  DIR* dir = ::opendir(workdir.c_str());
  ASSERT_NE(dir, nullptr);
  while (const dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".dump") == 0)
      dumps.push_back(name);
  }
  ::closedir(dir);
  std::sort(dumps.begin(), dumps.end());
  EXPECT_EQ(dumps, (std::vector<std::string>{"block_1.dump", "block_2.dump"}));

  SerialDriver<2> serial(mask, p, Method::kLatticeBoltzmann);
  serial.run(7);
  const GatheredFields2D g =
      gather_fields2d(mask, p, Method::kLatticeBoltzmann, 3, 1, workdir);
  EXPECT_EQ(g.step, 7);
  for (int y = 0; y < 20; ++y)
    for (int x = 0; x < 30; ++x) {
      ASSERT_EQ(g.rho(x, y), serial.domain().rho()(x, y)) << x << "," << y;
      ASSERT_EQ(g.vx(x, y), serial.domain().vx()(x, y)) << x << "," << y;
      ASSERT_EQ(g.vy(x, y), serial.domain().vy()(x, y)) << x << "," << y;
    }
}

/// Bitwise comparison of every restored rank dump against a serial run
/// (one block per rank, so block r's dump is rank r's subregion).
void expect_matches_serial(const Mask2D& mask, const FluidParams& p,
                           Method method, int jx, int jy, int steps,
                           const std::string& workdir) {
  SerialDriver<2> serial(mask, p, method);
  serial.run(steps);
  const Decomposition2D d(mask.extents(), jx, jy);
  const int ghost = required_ghost(method, p.filter_eps > 0.0);
  for (int rank : active_ranks(d, mask)) {
    Domain2D sub(mask, d.box(rank), p, method, ghost);
    restore_domain(sub, workdir + "/block_" + std::to_string(rank) +
                            ".dump");
    EXPECT_EQ(sub.step(), steps);
    const Box2 b = d.box(rank);
    for (int y = 0; y < b.height(); ++y)
      for (int x = 0; x < b.width(); ++x) {
        ASSERT_EQ(sub.rho()(x, y),
                  serial.domain().rho()(b.x0 + x, b.y0 + y))
            << "rank " << rank << " at " << x << "," << y;
        ASSERT_EQ(sub.vx()(x, y),
                  serial.domain().vx()(b.x0 + x, b.y0 + y))
            << "rank " << rank << " at " << x << "," << y;
      }
  }
}

TEST(ProcessSupervisor, KilledRankRestartsFromNewestEpochBitwiseLB) {
  // A rank SIGKILLed mid-run: the supervisor reaps it out of order, kills
  // the survivors, respawns from the newest committed epoch, and the
  // finished run is bit-identical to a run that never crashed.
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("killlb");
  ProcessRunOptions options;
  options.checkpoint_interval = 4;
  options.faults = "kill:rank=1,step=7";
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.final_step, 12);
  EXPECT_GE(r.committed_epoch, 0);  // epoch 0 (step 4) survived the crash
  expect_matches_serial(mask, p, Method::kLatticeBoltzmann, 2, 1, 12,
                        workdir);
}

TEST(ProcessSupervisor, KilledRankRestartsFromNewestEpochBitwiseFD) {
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 0.5;
  const std::string workdir = make_workdir("killfd");
  ProcessRunOptions options;
  options.checkpoint_interval = 3;
  options.faults = "kill:rank=0,step=8";
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kFiniteDifference, GridShape{1, 2, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.final_step, 12);
  expect_matches_serial(mask, p, Method::kFiniteDifference, 1, 2, 12,
                        workdir);
}

TEST(ProcessSupervisor, ExhaustedBudgetFailsFastWithReapedChildren) {
  // max_restarts = 0: the first casualty must fail the whole run within
  // the deadline bound — dead ranks never hang the supervisor — with a
  // per-rank report and the port registry cleaned up.
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("budget0");
  ProcessRunOptions options;
  options.max_restarts = 0;
  options.recv_deadline_ms = 5000;
  options.faults = "kill:rank=1,step=2";
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_supervised<2>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1},
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
  // WNOHANG supervision notices the death long before the recv deadline.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2 * 5000);
  std::ifstream registry(workdir + "/ports");
  EXPECT_FALSE(registry.good());  // no stale listeners advertised
  // Every child was reaped: no zombies left for this process to collect.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ProcessSupervisor, TornDumpIsNeverCommittedAndRecoveryIsBitwise) {
  // A rank that dies mid-checkpoint leaves a torn file under the final
  // name (the fault bypasses tmp+rename).  The supervisor must refuse to
  // commit that epoch, restart from the last good one, and still finish
  // bit-identically.
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("torn");
  ProcessRunOptions options;
  options.checkpoint_interval = 3;
  options.faults = "torn_dump:rank=0,epoch=1";
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.restarts, 1);
  expect_matches_serial(mask, p, Method::kLatticeBoltzmann, 2, 1, 12,
                        workdir);
}

TEST(ProcessSupervisor, SlowConnectingRankIsToleratedWithoutRestart) {
  // delay_connect stalls one rank before it even registers its port; the
  // others retry with backoff instead of failing, so the run completes
  // with no supervisor intervention.
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("slow");
  ProcessRunOptions options;
  options.faults = "delay_connect:rank=1,ms=300";
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 8, workdir,
      options);
  EXPECT_EQ(r.restarts, 0);
  expect_matches_serial(mask, p, Method::kLatticeBoltzmann, 2, 2, 8,
                        workdir);
}

/// Count of liveness audit records with a given event and (when >= 0) rank.
int count_events(const ProcessRunResult& r, const char* event,
                 int rank = -1) {
  int n = 0;
  for (const telemetry::LivenessRecord& rec : r.liveness)
    if (rec.event == event && (rank < 0 || rec.rank == rank)) ++n;
  return n;
}

/// The audit trail, one event per line, for assertion messages.
std::string events_string(const ProcessRunResult& r) {
  std::ostringstream out;
  for (const telemetry::LivenessRecord& rec : r.liveness)
    out << rec.event << " rank=" << rec.rank << " gen=" << rec.generation
        << " step=" << rec.step << " epoch=" << rec.epoch << "\n";
  return out.str();
}

TEST(ProcessLiveness, HungRankIsDetectedAndSurgicallyRestartedBitwise) {
  // rank 1 livelocks (stops beaconing, spins) at step 7.  The watchdog
  // must notice within the adaptive deadline, put the rank down with a
  // graceful SIGTERM, restart *only* that rank from the newest committed
  // epoch while the three survivors roll back in-process — and the result
  // must be bit-identical to a run that never hung.
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_HEARTBEAT_MS");
  const Mask2D mask = closed_box(36, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("hang");
  ProcessRunOptions options;
  options.checkpoint_interval = 4;
  options.faults = "hang:rank=1,step=7";
  options.liveness.heartbeat_floor_ms = 400;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.restarts, 1) << events_string(r);
  EXPECT_EQ(r.final_step, 12);
  EXPECT_GE(r.committed_epoch, 0);

  // Surgical: 4 initial forks + exactly one respawn; survivors were
  // rolled back in-process, never re-forked.
  EXPECT_EQ(r.processes, 4);
  EXPECT_EQ(r.forks, 5);

  // The audit trail tells the whole story.
  EXPECT_EQ(count_events(r, "hang_detected", 1), 1);
  EXPECT_EQ(count_events(r, "sigterm", 1), 1);
  EXPECT_EQ(count_events(r, "sigkill"), 0);  // the soft hang took SIGTERM
  EXPECT_EQ(count_events(r, "restart", 1), 1);
  EXPECT_EQ(count_events(r, "rollback"), 3);  // every survivor, once
  for (const telemetry::LivenessRecord& rec : r.liveness)
    if (rec.event == "hang_detected") {
      EXPECT_GT(rec.silence_s, 0.0);
      EXPECT_GE(rec.silence_s, rec.deadline_s);
      EXPECT_GE(rec.deadline_s, 0.4);  // the configured floor
    }

  // ...and it is in run_summary.json for offline forensics.
  std::ifstream in(r.summary_path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"liveness\""), std::string::npos);
  EXPECT_NE(text.str().find("\"hang_detected\""), std::string::npos);

  expect_matches_serial(mask, p, Method::kLatticeBoltzmann, 2, 2, 12,
                        workdir);
}

TEST(ProcessLiveness, MutedRankIsFlaggedAndRecoveryIsBitwise) {
  // rank 2 stops heartbeating at step 2 but keeps computing; rank 0
  // livelocks at step 6, wedging the whole cohort so the mute cannot
  // outrun the watchdog.  Both silent ranks must be flagged, while rank 1
  // — alive and beaconing from inside its blocked exchange — survives and
  // rolls back in-process.
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_HEARTBEAT_MS");
  const Mask2D mask = closed_box(36, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("mute");
  ProcessRunOptions options;
  options.checkpoint_interval = 4;
  options.faults = "hang:rank=0,step=6;mute:rank=2,step=2";
  options.liveness.heartbeat_floor_ms = 400;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{3, 1, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.restarts, 1) << events_string(r);  // one recovery for both
  EXPECT_EQ(r.final_step, 12);
  EXPECT_EQ(r.processes, 3);
  EXPECT_EQ(r.forks, 5);  // 3 spawns + 2 respawns; rank 1 never re-forked
  EXPECT_EQ(count_events(r, "hang_detected", 0), 1);
  EXPECT_EQ(count_events(r, "hang_detected", 2), 1);  // the mute, flagged
  EXPECT_EQ(count_events(r, "restart", 0), 1);
  EXPECT_EQ(count_events(r, "restart", 2), 1);
  EXPECT_EQ(count_events(r, "rollback", 1), 1);
  expect_matches_serial(mask, p, Method::kLatticeBoltzmann, 3, 1, 12,
                        workdir);
}

TEST(ProcessLiveness, HardHangEscalatesToSigkillAndStillRecovers) {
  // hard=1 blocks SIGTERM before spinning, so the graceful rung cannot
  // land and the ladder must fall through to SIGKILL after the grace
  // window — and the run must still finish bitwise.
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_HEARTBEAT_MS");
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("hardhang");
  ProcessRunOptions options;
  options.checkpoint_interval = 3;
  options.faults = "hang:rank=1,step=5,hard=1";
  options.liveness.heartbeat_floor_ms = 400;
  options.liveness.grace_ms = 300;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 10, workdir,
      options);
  EXPECT_EQ(r.restarts, 1) << events_string(r);
  EXPECT_EQ(r.forks, 3);
  EXPECT_EQ(count_events(r, "hang_detected", 1), 1);
  EXPECT_EQ(count_events(r, "sigterm", 1), 1);
  EXPECT_EQ(count_events(r, "sigkill", 1), 1);  // grace expired
  expect_matches_serial(mask, p, Method::kLatticeBoltzmann, 2, 1, 10,
                        workdir);
}

TEST(ProcessLiveness, HangWithZeroBudgetFailsNamingTheHungRank) {
  // No restart budget: the detection must still escalate and reap, then
  // fail the run with "hung" in the per-rank report — never hang the
  // supervisor alongside the child.
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_HEARTBEAT_MS");
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("hangbudget0");
  ProcessRunOptions options;
  options.max_restarts = 0;
  options.faults = "hang:rank=1,step=3";
  options.liveness.heartbeat_floor_ms = 300;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_supervised<2>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1},
                      50, workdir, options);
    FAIL() << "supervisor returned despite a hung rank and zero budget";
  } catch (const ProcessRunError& e) {
    bool saw_rank1 = false;
    for (const RankFailure& f : e.failures)
      if (f.rank == 1) {
        saw_rank1 = true;
        EXPECT_NE(f.detail.find("hung"), std::string::npos) << f.detail;
      }
    EXPECT_TRUE(saw_rank1) << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            10000);
  // Every per-round port registry was cleaned up and every child reaped.
  std::ifstream registry(workdir + "/ports.g0");
  EXPECT_FALSE(registry.good());
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ProcessLiveness, PutDownRankKeepsItsPreHangTelemetry) {
  // The SIGTERM handler publishes the victim's metrics snapshot, and the
  // supervisor folds it before the respawn replaces the file: the hung
  // rank's final accounting must include the steps it took *before* the
  // hang, not just the replay.
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_HEARTBEAT_MS");
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("harvest");
  ProcessRunOptions options;
  options.checkpoint_interval = 4;
  options.faults = "hang:rank=1,step=7";
  options.liveness.heartbeat_floor_ms = 400;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.restarts, 1) << events_string(r);
  // rank 1 ran 7 steps, hung, was put down, then replayed steps 5..12
  // from epoch 0 (step 4).  Fold + final snapshot = 7 + 8 = 15 counted
  // steps; losing the fold would leave only the replay's 8.
  ASSERT_EQ(r.rank_metrics.size(), 2u);
  EXPECT_GT(r.rank_metrics[1].t_calc(), 0.0);
  std::ifstream in(r.summary_path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("{\"rank\":1,\"steps\":15,"), std::string::npos)
      << text.str();
  expect_matches_serial(mask, p, Method::kLatticeBoltzmann, 2, 1, 12,
                        workdir);
}

TEST(ProcessRuntime, TelemetrySummaryStatsAndTrace) {
  // Exact per-rank accounting (4 ranks, 12 steps each) is what a
  // CI-injected fault legitimately changes; pin the run fault-free.
  ::unsetenv("SUBSONIC_FAULTS");
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("telemetry");
  ProcessRunOptions options;
  options.trace = 1;  // force tracing, regardless of SUBSONIC_TRACE
  options.checkpoint_interval = 4;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 12, workdir,
      options);

  // Per-rank T_calc / T_com from the ranks' snapshots.
  ASSERT_EQ(r.rank_metrics.size(), 4u);
  for (const telemetry::RankMetrics& rm : r.rank_metrics) {
    EXPECT_GT(rm.t_calc(), 0.0);
    EXPECT_GT(rm.t_com(), 0.0);
    EXPECT_GT(rm.utilization(), 0.0);
    EXPECT_LE(rm.utilization(), 1.0);
  }

  // Each rank left a parseable metrics snapshot with full step counts and
  // wire counters from the endpoint.
  for (int rank = 0; rank < 4; ++rank) {
    const auto parsed = telemetry::read_metrics_jsonl(
        workdir + "/rank_" + std::to_string(rank) + ".metrics.jsonl");
    ASSERT_EQ(parsed.size(), 1u) << "rank " << rank;
    EXPECT_EQ(parsed[0].rank, rank);
    EXPECT_EQ(parsed[0].counter_or("steps"), 12);
    EXPECT_GT(parsed[0].counter_or("transport.msgs_sent"), 0);
    EXPECT_GT(parsed[0].counter_or("transport.doubles_sent"), 0);
  }

  // run_summary.json: measured T_calc/T_com next to the model's f.
  ASSERT_FALSE(r.summary_path.empty());
  std::ifstream summary_in(r.summary_path);
  ASSERT_TRUE(summary_in.good());
  std::ostringstream summary_text;
  summary_text << summary_in.rdbuf();
  const std::string summary = summary_text.str();
  EXPECT_NE(summary.find("\"ranks\""), std::string::npos);
  EXPECT_NE(summary.find("\"measured_f\""), std::string::npos);
  EXPECT_NE(summary.find("\"predicted_f_dedicated\""), std::string::npos);
  EXPECT_NE(summary.find("\"m_factor\""), std::string::npos);

  // Merged Chrome trace: one loadable file with complete-span events.
  std::ifstream trace_in(workdir + "/trace.json");
  ASSERT_TRUE(trace_in.good());
  std::ostringstream trace_text;
  trace_text << trace_in.rdbuf();
  const std::string trace = trace_text.str();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front(), '{');
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("comm.post_sends"), std::string::npos);
  EXPECT_NE(trace.find("ckpt.capture"), std::string::npos);

  // The supervisor's own stream exists too (rank -1 metrics).
  std::ifstream sup(workdir + "/supervisor.metrics.jsonl");
  EXPECT_TRUE(sup.good());
}

TEST(ProcessSupervisor, CommitsEpochsAndCollectsOldOnes) {
  // This test asserts exact restart/epoch accounting, which any
  // CI-injected fault legitimately changes; run it fault-free.
  ::unsetenv("SUBSONIC_FAULTS");
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = make_workdir("epochs");
  ProcessRunOptions options;
  options.checkpoint_interval = 2;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 10, workdir,
      options);
  // Checkpoints at steps 2,4,6,8 -> epochs 0..3 (step 10 is the final
  // legacy dump, not an epoch).
  EXPECT_EQ(r.committed_epoch, 3);
  EXPECT_EQ(r.restarts, 0);
  // The newest epoch's dumps exist and verify; older ones were collected.
  // One block per rank: block r is rank r's subregion.
  for (int rank = 0; rank < 2; ++rank) {
    const CheckpointInfo info = inspect_checkpoint(
        workdir + "/block_" + std::to_string(rank) + ".epoch_3.dump");
    EXPECT_EQ(info.step, 8);
    std::ifstream old(workdir + "/block_" + std::to_string(rank) +
                      ".epoch_2.dump");
    EXPECT_FALSE(old.good());
  }
}

}  // namespace
}  // namespace subsonic
