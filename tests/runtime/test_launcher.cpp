// The Launcher seam: fork and exec children must produce bitwise
// identical runs — dumps, epochs, recovery behaviour — and a launch that
// fails before a child exists must surface as a clean ProcessRunError
// naming the rank and host.  Also pins start-of-run control-file hygiene
// (stale ports.g<N> / status.port / cohort.spec from a crashed prior
// run) and the socket heartbeat/control transport.
#include "src/runtime/launcher.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/geometry/flue_pipe.hpp"
#include "src/runtime/supervisor.hpp"
#include "src/util/fp_env.hpp"
#include "tests/support/workdir.hpp"

namespace subsonic {
namespace {

Mask2D closed_box(int nx, int ny, int ghost) {
  Mask2D mask(Extents2{nx, ny}, ghost);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
  return mask;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::vector<std::string> dump_files(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  EXPECT_NE(d, nullptr) << dir;
  if (!d) return names;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".dump") == 0)
      names.push_back(name);
  }
  ::closedir(d);
  return names;
}

/// Every *.dump in `a` must exist in `b` with identical bytes (and vice
/// versa) — the launcher-equivalence contract at the file level.
void expect_same_dumps(const std::string& a, const std::string& b) {
  const std::vector<std::string> in_a = dump_files(a);
  const std::vector<std::string> in_b = dump_files(b);
  ASSERT_FALSE(in_a.empty());
  EXPECT_EQ(in_a.size(), in_b.size());
  for (const std::string& name : in_a)
    EXPECT_EQ(read_file(a + "/" + name), read_file(b + "/" + name))
        << name << " differs between " << a << " and " << b;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

TEST(Launcher, ResolvesExplicitThenEnvThenForkDefault) {
  ::unsetenv("SUBSONIC_LAUNCHER");
  EXPECT_EQ(launcher::resolve_launcher_name(""), "fork");
  EXPECT_EQ(launcher::resolve_launcher_name("exec"), "exec");
  ::setenv("SUBSONIC_LAUNCHER", "exec", 1);
  EXPECT_EQ(launcher::resolve_launcher_name(""), "exec");
  EXPECT_EQ(launcher::resolve_launcher_name("fork"), "fork");  // explicit wins
  ::unsetenv("SUBSONIC_LAUNCHER");
  EXPECT_THROW(launcher::resolve_launcher_name("ssh"),
               std::invalid_argument);
  EXPECT_FALSE(launcher::local_host_tag().empty());
  EXPECT_FALSE(launcher::ExecLauncher::child_binary().empty());
}

TEST(ProcessLauncher, ExecMatchesForkBitwise) {
  // The same run under both launchers, epochs included: every rank dump
  // and epoch dump must be byte-identical.
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  ProcessRunOptions options;
  options.checkpoint_interval = 4;

  const std::string fork_dir = test::fresh_workdir("launcher_fork");
  options.launcher = "fork";
  const ProcessRunResult rf = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 10, fork_dir,
      options);

  const std::string exec_dir = test::fresh_workdir("launcher_exec");
  options.launcher = "exec";
  const ProcessRunResult re = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 10, exec_dir,
      options);

  EXPECT_EQ(rf.processes, re.processes);
  EXPECT_EQ(rf.final_step, re.final_step);
  EXPECT_EQ(rf.committed_epoch, re.committed_epoch);
  expect_same_dumps(fork_dir, exec_dir);
  // The spec file is scaffolding, not a result: gone after the run.
  EXPECT_FALSE(file_exists(exec_dir + "/cohort.spec"));
}

TEST(ProcessLauncher, ExecBlockedMatchesForkBitwise) {
  // The over-decomposed runtime rebuilds its block sets and owner map
  // from the cohort spec in exec children; per-block dumps must match.
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  ProcessRunOptions options;
  options.block_side = 8;

  const std::string fork_dir = test::fresh_workdir("launcher_bfork");
  options.launcher = "fork";
  const ProcessRunResult rf = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 12, fork_dir,
      options);

  const std::string exec_dir = test::fresh_workdir("launcher_bexec");
  options.launcher = "exec";
  const ProcessRunResult re = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1}, 12, exec_dir,
      options);

  EXPECT_EQ(rf.final_step, re.final_step);
  EXPECT_EQ(rf.blocks, re.blocks);
  expect_same_dumps(fork_dir, exec_dir);
}

TEST(ProcessLauncher, ExecRestartsKilledRankBitwise) {
  // A SIGKILLed exec child: surgical restart from the newest epoch, and
  // the finished run equals an undisturbed fork run byte for byte.
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  ProcessRunOptions options;
  options.checkpoint_interval = 4;

  const std::string clean_dir = test::fresh_workdir("launcher_clean");
  options.launcher = "fork";
  run_supervised<2>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 12,
                    clean_dir, options);

  const std::string kill_dir = test::fresh_workdir("launcher_kill");
  options.launcher = "exec";
  options.faults = "kill:rank=1,step=7";
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 12, kill_dir,
      options);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.final_step, 12);
  expect_same_dumps(clean_dir, kill_dir);
}

TEST(ProcessLauncher, ExecMatchesForkOnFdFluePipePastSubnormalOnset) {
  // The FD flue pipe at the paper's 400x250 passes the subnormal onset
  // (about step 70) well before step 100.  The supervisor runs in flush
  // mode here, which forked ranks inherit and exec'd subsonic_child ranks
  // do not; the kernels take their flush mode themselves, so the dumps
  // must still match byte for byte.
  const Geometry2D g =
      build_flue_pipe(Extents2{400, 250}, FluePipeVariant::kBasic, 3, 0.08);
  FluidParams p;
  p.dt = 0.3;
  p.nu = 0.02;
  p.filter_eps = 0.1;
  p.inlet_vx = g.inlet_speed;
  ProcessRunOptions options;
  const FlushSubnormals supervisor_mode;

  const std::string fork_dir = test::fresh_workdir("launcher_fdfork");
  options.launcher = "fork";
  const ProcessRunResult rf = run_supervised<2>(
      g.mask, p, Method::kFiniteDifference, GridShape{2, 1, 1}, 100, fork_dir,
      options);

  const std::string exec_dir = test::fresh_workdir("launcher_fdexec");
  options.launcher = "exec";
  const ProcessRunResult re = run_supervised<2>(
      g.mask, p, Method::kFiniteDifference, GridShape{2, 1, 1}, 100, exec_dir,
      options);

  EXPECT_EQ(rf.final_step, 100);
  EXPECT_EQ(re.final_step, 100);
  expect_same_dumps(fork_dir, exec_dir);
}

TEST(ProcessLauncher, SpawnFailureSurfacesRankAndHost) {
  // spawn_fail: the launch dies before any child process exists (a dead
  // workstation).  The supervisor must give up with a ProcessRunError
  // naming the failed rank and its host, not hang or leak children.
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  ProcessRunOptions options;
  options.max_restarts = 0;
  options.faults = "spawn_fail:rank=1";
  const std::string workdir = test::fresh_workdir("launcher_spawnfail");
  try {
    run_supervised<2>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 8,
                      workdir, options);
    FAIL() << "run succeeded despite an injected spawn failure";
  } catch (const ProcessRunError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("spawn failed"), std::string::npos) << what;
    EXPECT_NE(what.find(launcher::local_host_tag()), std::string::npos)
        << what;
    ASSERT_EQ(e.failures.size(), 1u);
    EXPECT_EQ(e.failures[0].rank, 1);
  }
}

TEST(ProcessLauncher, StaleControlFilesRemovedAtStartOfRun) {
  // A crashed prior run can leave status.port and cohort.spec behind;
  // start-of-run hygiene must clear them so no reader of the new run
  // finds a corpse's listener or world.
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("launcher_hygiene");
  { std::ofstream(workdir + "/status.port") << "59997\n"; }
  { std::ofstream(workdir + "/cohort.spec") << "stale junk"; }

  ProcessRunOptions options;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 5, workdir,
      options);
  EXPECT_EQ(r.final_step, 5);
  EXPECT_FALSE(file_exists(workdir + "/status.port"));
  EXPECT_FALSE(file_exists(workdir + "/cohort.spec"));
}

TEST(ProcessLauncher, SocketChannelsMatchPipesBitwise) {
  // Heartbeat/control over sockets dialed through the rendezvous service
  // instead of inherited pipes: observationally inert to the physics.
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  ProcessRunOptions options;
  options.checkpoint_interval = 4;

  const std::string pipe_dir = test::fresh_workdir("launcher_pipes");
  options.liveness.socket_channels = -1;
  run_supervised<2>(mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 8,
                    pipe_dir, options);

  const std::string sock_dir = test::fresh_workdir("launcher_socks");
  options.liveness.socket_channels = 1;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 8, sock_dir,
      options);
  EXPECT_EQ(r.final_step, 8);
  expect_same_dumps(pipe_dir, sock_dir);
}

}  // namespace
}  // namespace subsonic
