// The cohort-lifecycle module: everything around "a rank process exists"
// — launcher selection (fork | exec), the rendezvous service the cohort
// coordinates through, stderr tagging, spawn-fault injection, per-round
// registry retirement, harvest of dead ranks' telemetry, and the failure
// report.  The supervisor keeps what is genuinely its own (decomposition,
// epochs, segments, rebalancing, aggregation) and drives this object
// through the liveness engine's hooks.
#pragma once

#include <sys/types.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/comm/rendezvous.hpp"
#include "src/runtime/cohort.hpp"
#include "src/runtime/cohort_spec.hpp"
#include "src/runtime/launcher.hpp"
#include "src/runtime/liveness.hpp"

namespace subsonic {
namespace liveness {
class StatusBoard;
}

namespace cohort {

class Lifecycle {
 public:
  struct Setup {
    std::string workdir;
    bool trace_on = false;
    int dim = 2;
    /// Launcher request: explicit name, else SUBSONIC_LAUNCHER, else fork.
    std::string launcher;
    /// The options.faults string, passed to exec children verbatim ("" =
    /// the child resolves SUBSONIC_FAULTS itself, same as the supervisor).
    std::string faults_spec;
    const FaultPlan* faults = nullptr;
    const LivenessOptions* liveness = nullptr;
  };

  /// Resolves the launcher and starts the rendezvous service.  Throws
  /// std::invalid_argument on an unknown launcher name, std::runtime_error
  /// when the exec launcher has no child binary.
  explicit Lifecycle(Setup setup);
  ~Lifecycle();

  Lifecycle(const Lifecycle&) = delete;
  Lifecycle& operator=(const Lifecycle&) = delete;

  const std::string& launcher_name() const { return launcher_name_; }
  const std::string& host_tag() const { return host_tag_; }
  /// The registry base every child coordinates through:
  /// "rdv:127.0.0.1:<port>" — a service endpoint, not a file.
  const std::string& registry() const { return registry_; }
  bool socket_channels() const { return socket_channels_; }
  /// True when children rebuild their world from the cohort spec file
  /// (exec launcher) — the supervisor must write_spec before spawning.
  bool wants_spec() const { return wants_spec_; }
  const std::string& spec_path() const { return spec_path_; }
  void write_spec(const CohortSpec& spec);
  void set_board(liveness::StatusBoard* board) { board_ = board; }

  /// Starts one rank process: spawn-fault check, stderr tagging pipe,
  /// channel endpoint (socket mode), then the launcher.  `entry` is the
  /// in-process child body for the fork launcher; exec children run the
  /// subsonic_child binary instead.  Throws launcher::SpawnError when no
  /// process came to exist.
  pid_t spawn(int rank, ChildConfig cfg, const std::vector<int>& close_in_child,
              std::function<void(const ChildConfig&)> entry);

  /// Round hygiene: retires every rendezvous registration of earlier
  /// rounds (the protocol form of deleting the old ports.g<N> file).
  void begin_generation(int generation);

  /// Socket-channel adoption for the liveness engine: blocks until rank's
  /// HB and CTL channels are dialed in, bounded by the heartbeat floor.
  std::pair<int, int> adopt_channels(int rank);

  /// Harvests a dead rank's flushed telemetry (and trace) before a
  /// respawn rewrites the files; merges into harvested().
  void harvest_rank(int rank, bool flushed);

  /// Restart budget exhausted: removes the run-control files and throws
  /// the per-rank ProcessRunError report.
  [[noreturn]] void fail(const std::vector<liveness::EngineFailure>& fails,
                         int restarts);

  /// A launch failed before any child existed: same cleanup, a one-rank
  /// report naming the host.
  [[noreturn]] void fail_spawn(const launcher::SpawnError& err, int restarts);

  void join_taggers();

  /// Telemetry harvested from ranks that died mid-run, by rank.  The
  /// supervisor also folds its per-segment totals in here.
  std::map<int, telemetry::RankMetrics>& harvested() { return harvested_; }
  const std::vector<std::string>& harvested_traces() const {
    return harvested_traces_;
  }

  /// Start-of-run hygiene for supervisor-owned control files a crashed
  /// prior run may have left behind: legacy ports.g<N> registries,
  /// status.port, cohort.spec.
  static void clean_run_control_files(const std::string& workdir);

 private:
  Setup setup_;
  std::string launcher_name_;
  std::unique_ptr<launcher::Launcher> launcher_;
  std::unique_ptr<rendezvous::Server> server_;
  std::string registry_;
  std::string host_tag_;
  std::string spec_path_;
  bool socket_channels_ = false;
  bool wants_spec_ = false;
  liveness::StatusBoard* board_ = nullptr;
  std::vector<std::thread> taggers_;
  std::map<int, telemetry::RankMetrics> harvested_;
  std::vector<std::string> harvested_traces_;
};

}  // namespace cohort
}  // namespace subsonic
