#include "src/runtime/cohort_lifecycle.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/runtime/status_board.hpp"
#include "src/runtime/supervisor.hpp"
#include "src/util/check.hpp"
#include "src/util/fault_plan.hpp"

namespace subsonic {
namespace cohort {

namespace {

std::string describe_status(int status) {
  if (WIFEXITED(status))
    return "exited " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "killed by signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

}  // namespace

Lifecycle::Lifecycle(Setup setup) : setup_(std::move(setup)) {
  launcher_name_ = launcher::resolve_launcher_name(setup_.launcher);
  launcher_ = launcher::make_launcher(launcher_name_);
  server_ = std::make_unique<rendezvous::Server>();
  registry_ = server_->endpoint();
  host_tag_ = launcher::local_host_tag();
  spec_path_ = setup_.workdir + "/cohort.spec";
  socket_channels_ = liveness::resolve_socket_channels(*setup_.liveness);
  wants_spec_ = launcher_name_ != "fork";
}

Lifecycle::~Lifecycle() { join_taggers(); }

void Lifecycle::write_spec(const CohortSpec& spec) {
  write_cohort_spec(spec_path_, spec);
}

pid_t Lifecycle::spawn(int rank, ChildConfig cfg,
                       const std::vector<int>& close_in_child,
                       std::function<void(const ChildConfig&)> entry) {
  if (setup_.faults->spawn_fail(rank, cfg.generation))
    throw launcher::SpawnError("injected spawn failure (fault plan)", rank,
                               host_tag_);
  if (socket_channels_) cfg.channel_endpoint = registry_;

  int err_pipe[2];
  SUBSONIC_REQUIRE_MSG(::pipe(err_pipe) == 0, "pipe failed");

  launcher::ChildSpec spec;
  spec.rank = rank;
  spec.host = host_tag_;
  spec.cfg = std::move(cfg);
  spec.workdir = setup_.workdir;
  spec.registry = registry_;
  spec.spec_path = spec_path_;
  spec.faults = setup_.faults_spec;
  spec.dim = setup_.dim;
  spec.stderr_fd = err_pipe[1];
  spec.close_in_child = close_in_child;
  spec.close_in_child.push_back(err_pipe[0]);
  spec.entry = std::move(entry);

  launcher::ChildHandle handle;
  try {
    handle = launcher_->spawn(spec);
  } catch (...) {
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    throw;
  }
  ::close(err_pipe[1]);
  taggers_.emplace_back(tag_child_stderr, err_pipe[0], rank);
  return handle.pid;
}

void Lifecycle::begin_generation(int generation) {
  server_->retire_rounds_below(generation);
}

std::pair<int, int> Lifecycle::adopt_channels(int rank) {
  // Bound the wait by the watchdog floor: a child that cannot even dial
  // its channels within the silence budget is already what the watchdog
  // calls hung, and {-1, -1} routes it into the same escalation.  Both
  // channels share ONE floor-sized budget — spawn_one() adopts ranks
  // synchronously, so per-channel budgets would let a dead cohort stall
  // the engine for 2 x floor x N ranks before escalation.
  const int floor_ms = liveness::resolve_floor_ms(*setup_.liveness);
  const auto start = std::chrono::steady_clock::now();
  const int hb = server_->take_channel("HB", rank, floor_ms);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  const int ctl_budget_ms =
      static_cast<int>(std::max<long long>(0, floor_ms - elapsed_ms));
  const int ctl = server_->take_channel("CTL", rank, ctl_budget_ms);
  return {hb, ctl};
}

void Lifecycle::harvest_rank(int rank, bool flushed) {
  const std::string mp = metrics_path(setup_.workdir, rank);
  bool got = false;
  try {
    for (telemetry::RankMetrics& rm : telemetry::read_metrics_jsonl(mp)) {
      if (rm.rank != rank) continue;
      harvested_[rank].rank = rank;
      telemetry::merge_metrics(harvested_[rank], rm);
      got = true;
    }
  } catch (const std::exception&) {
    // No flush ever happened (SIGKILL before the first periodic flush):
    // nothing to harvest, the respawn re-counts its replayed work.
  }
  // A signal death never ran the exit-path dump, so whatever the
  // periodic flushes left is a truthful prefix, not the whole story.
  if (got && !flushed) harvested_[rank].partial = true;
  if (got && board_) board_->on_harvest(rank, harvested_[rank]);
  // Whatever was (or wasn't) flushed must not be double-read when the
  // respawned rank writes its own final stream.
  std::remove(mp.c_str());
  if (setup_.trace_on) {
    const std::string tp = rank_trace_path(setup_.workdir, rank);
    std::ifstream probe(tp);
    if (probe.good()) {
      const std::string moved = setup_.workdir + "/rank_" +
                                std::to_string(rank) + ".g" +
                                std::to_string(harvested_traces_.size()) +
                                ".trace.json";
      std::rename(tp.c_str(), moved.c_str());
      harvested_traces_.push_back(moved);
    }
  }
}

void Lifecycle::fail(const std::vector<liveness::EngineFailure>& fails,
                     int restarts) {
  clean_run_control_files(setup_.workdir);
  std::vector<RankFailure> failures;
  std::ostringstream msg;
  msg << "parallel run failed after " << restarts << " restart(s);";
  for (const liveness::EngineFailure& ef : fails) {
    RankFailure f;
    f.rank = ef.rank;
    f.wait_status = ef.status;
    f.detail = ef.hung ? "hung (heartbeat silence); " +
                             describe_status(ef.status)
                       : describe_status(ef.status);
    msg << " rank " << f.rank << ": " << f.detail << ';';
    failures.push_back(std::move(f));
  }
  throw ProcessRunError(msg.str(), std::move(failures));
}

void Lifecycle::fail_spawn(const launcher::SpawnError& err, int restarts) {
  clean_run_control_files(setup_.workdir);
  std::ostringstream msg;
  msg << "parallel run failed after " << restarts << " restart(s); rank "
      << err.rank << " on host " << err.host << ": spawn failed: "
      << err.what() << ';';
  RankFailure f;
  f.rank = err.rank;
  f.detail = std::string("spawn failed: ") + err.what();
  throw ProcessRunError(msg.str(), {std::move(f)});
}

void Lifecycle::join_taggers() {
  for (std::thread& t : taggers_)
    if (t.joinable()) t.join();
}

void Lifecycle::clean_run_control_files(const std::string& workdir) {
  liveness::remove_port_registries(workdir);
  std::remove((workdir + "/status.port").c_str());
  std::remove((workdir + "/cohort.spec").c_str());
}

}  // namespace cohort
}  // namespace subsonic
