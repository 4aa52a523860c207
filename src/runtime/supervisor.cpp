// run_supervised<Dim>: the supervisor half of the process runtime
// (supervisor.hpp documents the contract).  Its one state store is the
// committed epochs (epoch_store.hpp): checkpoints are per-*block*
// (owner-agnostic, so a restart works under any owner map), a plain run
// is the special case of one block per rank, and every cohort ends in an
// epoch captured at its target step.  When rebalancing is enabled the run
// proceeds in segments of rebalance_interval steps — at each segment
// boundary every child has exited cleanly at the same step, the boundary
// epoch is committed, the supervisor folds the segment's per-block
// compute timers into a rebalance decision, and the next segment's cohort
// restores the boundary epoch under the (possibly rewritten) owner map.
// Epoch ids stay consistent because every rank of a round restores the
// same committed epoch and numbers its captures on from it.
//
// Supervisor<Dim> below is the paper's monitoring program: the one place
// that starts, watches, stops and restarts the rank processes.
#include "src/runtime/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/comm/http_status.hpp"
#include "src/comm/rendezvous.hpp"
#include "src/io/checkpoint.hpp"
#include "src/runtime/cohort.hpp"
#include "src/runtime/cohort_spec.hpp"
#include "src/runtime/epoch_store.hpp"
#include "src/runtime/launcher.hpp"
#include "src/runtime/rebalancer.hpp"
#include "src/runtime/status_board.hpp"
#include "src/solver/simd.hpp"
#include "src/telemetry/summary.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/util/check.hpp"
#include "src/util/env_int.hpp"
#include "src/util/fault_plan.hpp"
#include "src/util/worker_pool.hpp"

namespace subsonic {

namespace {

/// Resolves ProcessRunOptions::metrics_flush_interval: an explicit
/// positive option wins, negative disables, 0 follows the
/// SUBSONIC_METRICS_FLUSH environment variable (default 16; a
/// non-positive env value disables).  Returns the steps between periodic
/// publications, 0 = off.
int resolve_metrics_flush_interval(int option) {
  if (option > 0) return option;
  if (option < 0) return 0;
  const int v = env_int("SUBSONIC_METRICS_FLUSH", 16, INT_MIN, INT_MAX);
  return v > 0 ? v : 0;
}

/// Resolves ProcessRunOptions::status_port into a bindable port: > 0 is
/// that port, 0 means "bind an ephemeral port", and -1 means "endpoint
/// off".  Option semantics: > 0 explicit, -1 force off, -2 force
/// ephemeral, 0 = SUBSONIC_STATUS_PORT env ("auto" = ephemeral,
/// unset/empty/non-positive = off; above 65535 throws).
int resolve_status_port(int option) {
  if (option > 0) return option;
  if (option == -1) return -1;
  if (option == kStatusPortEphemeral) return 0;
  const char* env = std::getenv("SUBSONIC_STATUS_PORT");
  if (env && std::string(env) == "auto") return 0;
  const int v = env_int("SUBSONIC_STATUS_PORT", -1, INT_MIN, 65535);
  return v > 0 ? v : -1;
}

/// Which file a path names and what it holds: a writer still appending,
/// a rewrite in place, and an atomic rename over it all change it.
struct FileId {
  dev_t dev = 0;
  ino_t ino = 0;
  off_t size = 0;
  long long mtime_ns = 0;
  friend bool operator==(const FileId&, const FileId&) = default;
};

/// The identity of the file at `path`, or nothing when there is none.
std::optional<FileId> file_id(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return FileId{st.st_dev, st.st_ino, st.st_size,
                st.st_mtim.tv_sec * 1000000000LL + st.st_mtim.tv_nsec};
}

/// The start-of-run rule: the committed epoch is kept when every active
/// block's dump verifies and matches this run (dimension, box, method,
/// ghost width, the MANIFEST's step), so repeated calls continue from it;
/// anything else starts fresh.  epoch::clear_run_state then removes the
/// rest, rank snapshots included.  A kept epoch's missing or torn dump
/// throws its checkpoint_error before any rank is spawned.
template <int Dim>
std::optional<epoch::Manifest> start_of_run(
    const std::string& workdir,
    const typename DomainTraits<Dim>::BlockDecomp& bd,
    const std::vector<int>& active_blocks, Method method, int ghost) {
  std::optional<epoch::Manifest> m = epoch::read_manifest(workdir);
  if (m && m->blocks != active_blocks) m.reset();
  if (m) {
    const std::vector<std::string> paths =
        epoch::dump_paths(workdir, m->blocks, m->epoch);
    const auto infos = epoch::verify(paths);
    for (std::size_t i = 0; m && i < paths.size(); ++i) {
      const CheckpointInfo info =
          infos[i] ? *infos[i] : inspect_checkpoint(paths[i]);  // throws
      if (!box_matches(info, bd.box(m->blocks[i])) ||
          info.method != static_cast<int>(method) || info.ghost != ghost ||
          info.step != m->step)
        m.reset();
    }
  }
  epoch::clear_run_state(workdir, m);
  return m;
}

/// The cohort spec file exec children rebuild their world from.
std::string spec_path(const std::string& workdir) {
  return workdir + "/cohort.spec";
}

/// The supervisor's run-control files: removed at start of run (a
/// crashed prior run's status.port points at a dead listener) and when a
/// run fails.
void remove_control_files(const std::string& workdir) {
  std::remove((workdir + "/status.port").c_str());
  std::remove(spec_path(workdir).c_str());
}

std::string describe_status(int status) {
  if (WIFEXITED(status))
    return "exited " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "killed by signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

/// The rank processes of one run and everything that watches them: the
/// launcher, the rendezvous service the ranks coordinate through, the
/// stderr taggers, the heartbeat Monitor, the child table and the epoch
/// commit.  Built once per run; run_cohort() supervises one segment's
/// cohort to clean completion — spawn, pump heartbeats, reap, watchdog,
/// escalate, and recover surgically: survivors roll back in-process from
/// the newest committed epoch and only casualties are respawned, charged
/// to the restart budget.
template <int Dim>
class Supervisor {
 public:
  using Traits = DomainTraits<Dim>;

  /// Resolves the launcher (std::invalid_argument on an unknown name,
  /// std::runtime_error when exec has no child binary) and starts the
  /// rendezvous service.  `resume` is the committed epoch the run starts
  /// from (start_of_run), if any.  The references must outlive the
  /// object; the loop writes `result`'s liveness trail, restarts and
  /// forks directly.
  Supervisor(const typename Traits::Mask& mask, const FluidParams& params,
             Method method, const typename Traits::BlockDecomp& bd,
             const std::vector<int>& active_blocks, const std::string& workdir,
             const ProcessRunOptions& options, const FaultPlan& faults,
             telemetry::Session& session, liveness::StatusBoard& board,
             ProcessRunResult& result,
             const std::optional<epoch::Manifest>& resume)
      : mask_(mask),
        params_(params),
        method_(method),
        bd_(bd),
        active_blocks_(active_blocks),
        workdir_(workdir),
        options_(options),
        faults_(faults),
        session_(session),
        board_(board),
        result_(result),
        launcher_(launcher::make_launcher(options.launcher)),
        committed_(resume.value_or(epoch::Manifest{})),
        verified_(active_blocks.size()),
        rejected_(active_blocks.size()) {
    // Writing a rollback order to a child that just died must surface as
    // EPIPE, not kill the supervisor.
    old_sigpipe_ = ::signal(SIGPIPE, SIG_IGN);
  }

  ~Supervisor() {
    for (std::thread& t : taggers_) t.join();
    ::signal(SIGPIPE, old_sigpipe_);
  }

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  const char* launcher_name() const { return launcher_->name(); }
  const std::string& host() const { return host_; }
  /// The newest committed epoch (epoch -1, step 0: none yet).
  const epoch::Manifest& committed() const { return committed_; }
  /// Traces of put-down ranks, moved aside before a respawn rewrote them.
  const std::vector<std::string>& harvested_traces() const {
    return harvested_traces_;
  }

  /// Runs `ranks` to cfg.target_step, every child built from `cfg` (the
  /// run-wide fields; rank, round, restore epoch, stagger and channels
  /// are set per spawn).  Every round restores the newest committed epoch
  /// (or the fresh state), and the cohort ends with its target-step epoch
  /// committed.  Throws ProcessRunError when a casualty lands with no
  /// budget left or a spawn fails, with every child reaped, and
  /// checkpoint_error naming a dump of that last epoch that fails
  /// verification after every rank exited cleanly.
  void run_cohort(const std::vector<int>& ranks,
                  const cohort::ChildConfig& cfg) {
    cfg_ = cfg;
    children_.assign(ranks.size(), Child{});
    for (size_t i = 0; i < ranks.size(); ++i) children_[i].rank = ranks[i];

    int g = generation_;
    long epoch = committed_.epoch;
    server_.retire_rounds_below(g);
    for (Child& c : children_) spawn(c, g, epoch);
    bool recovering = false;
    // Proof-of-life anchor: the time of the newest down/hang event.  A
    // recovery commits only once every surviving rank has beaconed at or
    // after this point, so a rank that went silent just before a sibling's
    // detection joins the same recovery round instead of wasting a second
    // one (and a second slice of the restart budget) moments later.  A
    // genuinely silent rank cannot hold the commit hostage: its own
    // deadline crosses, it is escalated, and it stops being a survivor.
    double quiesce_after = -1;

    for (;;) {
      const double now = now_s();
      monitor_.poll(now);
      bool progressed = false;

      // Reap and classify.
      for (Child& c : children_) {
        if (c.reaped) continue;
        int status = 0;
        if (::waitpid(c.pid, &status, WNOHANG) != c.pid) continue;
        progressed = true;
        monitor_.poll(now);  // drain the child's final beacons before judging
        const int obs_round = monitor_.observed_round(c.rank);
        const long obs_step = monitor_.last_step(c.rank);
        mark_reaped(c, status);

        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (clean && obs_round == g && !recovering) {
          c.done = true;
          continue;
        }
        // Every other exit needs a recovery round to respawn this rank:
        //  - a clean exit on a stale round (the rank missed a rollback and
        //    finished old work — harmless, but the new round needs it back),
        //  - a clean exit while a recovery is already pending (its round is
        //    about to be rolled back from under it),
        //  - a put-down ack (kTermAckExit or our escalation SIGKILL),
        //  - and a genuine casualty (fault, crash, peer-lost).
        recovering = true;
        quiesce_after = now;
        if (!clean && !c.put_down) {
          c.casualty = true;
          record("exit_detected", c.rank, g, obs_step);
        }
        // A child that ran its exit path (any exit code) published its
        // metrics on the way out; one torn down by a signal left only its
        // last periodic snapshot behind — the fold must be tagged partial.
        rank_down(c.rank, WIFEXITED(status));
      }

      commit_epochs();

      // Watchdog: silence past the adaptive deadline.
      if (options_.liveness.watchdog) {
        for (int rank : monitor_.newly_hung(now)) {
          for (Child& c : children_) {
            if (c.rank != rank || c.reaped || c.escalating) continue;
            c.casualty = true;
            c.escalating = true;
            recovering = true;
            quiesce_after = now;
            record("hang_detected", rank, g, monitor_.last_step(rank), -1,
                   monitor_.silence_s(rank, now), monitor_.deadline_s(rank));
            progressed = true;
          }
        }
      }

      // Escalation ladder for flagged ranks.
      for (Child& c : children_) {
        if (!c.escalating || c.reaped) continue;
        switch (c.esc.next(now, grace_s_)) {
          case liveness::Escalation::Action::kSigterm:
            c.put_down = true;
            record("sigterm", c.rank, g, monitor_.last_step(c.rank));
            ::kill(c.pid, SIGTERM);
            progressed = true;
            break;
          case liveness::Escalation::Action::kSigkill:
            record("sigkill", c.rank, g, monitor_.last_step(c.rank));
            ::kill(c.pid, SIGKILL);
            progressed = true;
            break;
          case liveness::Escalation::Action::kNone:
            break;
        }
      }

      // Commit a recovery round once every rank that needs respawning is
      // dead and reaped (escalations still in flight hold it open) and
      // every survivor has proved it is alive since the last casualty.
      bool respawn_needed = false;
      bool escalation_pending = false;
      bool survivors_fresh = true;
      bool charged = false;
      for (const Child& c : children_) {
        if (c.reaped && !c.done) respawn_needed = true;
        if (c.escalating && !c.reaped) escalation_pending = true;
        if (!c.reaped && !c.escalating &&
            !monitor_.beaconed_since(c.rank, quiesce_after))
          survivors_fresh = false;
        if (c.casualty) charged = true;
      }
      if (recovering && respawn_needed && !escalation_pending &&
          survivors_fresh) {
        if (charged) {
          // Only genuine casualties consume restart budget; a benign
          // re-sync (stale-round finisher) does not.
          if (result_.restarts >= options_.max_restarts) fail_all(g);
          ++result_.restarts;
          session_.metrics().counter(-1, "restart.count").add();
        }
        commit_epochs();
        ++g;
        epoch = committed_.epoch;
        // Fresh per-round registrations; the previous round's entries
        // point at listeners that are dead or about to be torn down.
        server_.retire_rounds_below(g);
        // Roll survivors back first so they register in the new
        // rendezvous round before the respawned ranks look them up.
        for (Child& c : children_) {
          if (c.reaped) continue;
          liveness::RollbackMsg msg;
          msg.round = g;
          msg.epoch = epoch;
          unsigned char frame[liveness::kRollbackBytes];
          liveness::encode_rollback(msg, frame);
          const ssize_t n =
              ::write(c.ctl_write, frame, liveness::kRollbackBytes);
          // EPIPE: the child died between reap passes; the next WNOHANG
          // pass will classify it and trigger another recovery round.
          (void)n;
          ::kill(c.pid, SIGUSR1);
          monitor_.on_recovery_signal(c.rank, now_s());
          record("rollback", c.rank, g, monitor_.last_step(c.rank), epoch);
        }
        for (Child& c : children_) {
          if (!c.reaped) continue;
          record("restart", c.rank, g, -1, epoch);
          spawn(c, g, epoch);
        }
        recovering = false;
        progressed = true;
      }

      bool all_done = true;
      for (const Child& c : children_)
        if (!c.reaped || !c.done) all_done = false;
      if (all_done) break;

      if (!progressed)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    generation_ = g + 1;
    commit_epochs();
    if (committed_.step == cfg_.target_step) return;
    remove_control_files(workdir_);
    for (const std::string& path :
         epoch::dump_paths(workdir_, active_blocks_, committed_.epoch + 1))
      inspect_checkpoint(path);  // throws checkpoint_error naming the dump
    throw checkpoint_error("epoch " + std::to_string(committed_.epoch + 1) +
                           " in " + workdir_ +
                           ": its dumps disagree on the step counter");
  }

 private:
  struct Child {
    int rank = -1;
    pid_t pid = -1;
    int hb_read = -1;    ///< heartbeat channel, the supervisor's end
    int ctl_write = -1;  ///< control channel, the supervisor's end
    bool reaped = true;  ///< no live process: never spawned, or waited for
    bool done = false;   ///< exited cleanly on the newest round
    bool casualty = false;    ///< died or hung: charged to the budget
    bool escalating = false;  ///< hung: on the SIGTERM -> SIGKILL ladder
    bool put_down = false;    ///< the supervisor signalled it to die
    int status = 0;           ///< waitpid status once reaped
    liveness::Escalation esc;
  };

  double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Appends one audit record: the board's live view, the result's
  /// trail and the supervisor's liveness.<event> counter.
  void record(const char* event, int rank, int g, long step, long epoch = -1,
              double silence_s = 0, double deadline_s = 0) {
    const telemetry::LivenessRecord lr{event,      rank,       g,     step,
                                       silence_s,  deadline_s, epoch, host_};
    board_.on_liveness(lr);
    result_.liveness.push_back(lr);
    session_.metrics().counter(-1, std::string("liveness.") + event).add();
  }

  /// Starts rank c's process for round `g`, restoring the committed
  /// `epoch` (-1: the fresh state).  A launch that fails tears the cohort
  /// down first — the missing rank would starve every peer — and a
  /// SpawnError then fails the run naming the rank and its host.
  void spawn(Child& c, int g, long epoch) {
    int hb[2] = {-1, -1};
    int ctl[2] = {-1, -1};
    int err[2] = {-1, -1};
    const auto close_all = [&] {
      for (int fd : {hb[0], hb[1], ctl[0], ctl[1], err[0], err[1]})
        if (fd >= 0) ::close(fd);
    };
    pid_t pid = -1;
    try {
      if (faults_.spawn_fail(c.rank, g))
        throw launcher::SpawnError("injected spawn failure (fault plan)",
                                   c.rank, host_);
      launcher::ChildSpec spec;
      // Survivors outlive many spawns: every parent-side fd of every
      // other child must be closed in this one, or a dead rank's pipes
      // would stay half-open (no EOF, stray readers) for as long as any
      // sibling lives.
      for (const Child& other : children_)
        for (int fd : {other.hb_read, other.ctl_write})
          if (fd >= 0) spec.close_in_child.push_back(fd);
      if (!sockets_) {
        if (::pipe(hb) != 0)
          throw std::runtime_error("heartbeat pipe() failed");
        if (::pipe(ctl) != 0) throw std::runtime_error("control pipe() failed");
        // Child's write end never blocks (full pipe drops beacons);
        // parent's read end never blocks (the monitor drains
        // opportunistically).
        ::fcntl(hb[1], F_SETFL, O_NONBLOCK);
        ::fcntl(hb[0], F_SETFL, O_NONBLOCK);
        spec.close_in_child.push_back(hb[0]);
        spec.close_in_child.push_back(ctl[1]);
      }
      SUBSONIC_REQUIRE_MSG(::pipe(err) == 0, "pipe failed");
      spec.close_in_child.push_back(err[0]);
      spec.rank = c.rank;
      spec.host = host_;
      spec.cfg = cfg_;
      spec.cfg.rank = c.rank;
      spec.cfg.generation = g;
      spec.cfg.restore_epoch = epoch;
      // The rank's index in the segment's active list staggers its
      // epoch flushes.
      spec.cfg.stagger_index = static_cast<int>(&c - children_.data());
      // -1 in socket mode: the child dials both channels at its registry.
      spec.cfg.heartbeat_fd = hb[1];
      spec.cfg.control_fd = ctl[0];
      spec.workdir = workdir_;
      spec.registry = registry_;
      spec.spec_path = spec_path(workdir_);
      spec.faults = options_.faults;
      spec.dim = Dim;
      spec.stderr_fd = err[1];
      spec.entry = [this](const cohort::ChildConfig& child_cfg) {
        cohort::child_main<Dim>(mask_, params_, method_, bd_, child_cfg,
                                workdir_, registry_, faults_);  // never returns
      };
      pid = launcher_->spawn(spec).pid;
    } catch (const launcher::SpawnError& e) {
      close_all();
      emergency_stop();
      fail({RankFailure{e.rank, 0, std::string("spawn failed: ") + e.what()}},
           " on host " + e.host);
    } catch (...) {
      close_all();
      emergency_stop();
      throw;
    }
    for (int fd : {hb[1], ctl[0], err[1]})  // the child's ends
      if (fd >= 0) ::close(fd);
    taggers_.emplace_back(cohort::tag_child_stderr, err[0], c.rank);

    int hb_read = hb[0];
    int ctl_write = ctl[1];
    if (sockets_) {
      // A timeout leaves -1 fds — the rank simply looks silent and the
      // watchdog escalates it like any other hang.  Both channels share
      // ONE floor-sized budget: ranks are adopted one after another, so
      // per-channel budgets would let a dead cohort stall the supervisor
      // for 2 x floor x N ranks before escalation.
      const double t0 = now_s();
      hb_read = server_.take_channel("HB", c.rank, floor_ms_);
      const int spent_ms = static_cast<int>((now_s() - t0) * 1e3);
      ctl_write = server_.take_channel("CTL", c.rank,
                                       std::max(0, floor_ms_ - spent_ms));
      if (hb_read >= 0) ::fcntl(hb_read, F_SETFL, O_NONBLOCK);
    }
    const int rank = c.rank;
    c = Child{};  // a new process: not done, no casualty, no escalation
    c.rank = rank;
    c.pid = pid;
    c.hb_read = hb_read;
    c.ctl_write = ctl_write;
    c.reaped = false;
    monitor_.attach(rank, hb_read, g, now_s());
    ++result_.forks;
  }

  void mark_reaped(Child& c, int status) {
    c.reaped = true;
    c.status = status;
    monitor_.detach(c.rank);
    if (c.hb_read >= 0) ::close(c.hb_read);
    if (c.ctl_write >= 0) ::close(c.ctl_write);
    c.hb_read = -1;
    c.ctl_write = -1;
  }

  /// A child of `rank` died mid-run (casualty or put-down): fold its last
  /// metrics snapshot before a respawn replaces it — partial unless the
  /// child ran its exit path (`flushed`) — and, tracing on, move its
  /// trace aside.
  void rank_down(int rank, bool flushed) {
    board_.fold(rank, !flushed);
    if (!cfg_.trace) return;
    const std::string tp = cohort::rank_trace_path(workdir_, rank);
    if (!std::ifstream(tp).good()) return;
    const std::string moved = workdir_ + "/rank_" + std::to_string(rank) +
                              ".g" + std::to_string(harvested_traces_.size()) +
                              ".trace.json";
    std::rename(tp.c_str(), moved.c_str());
    harvested_traces_.push_back(moved);
  }

  /// Verify-and-commit: an epoch becomes restorable only once every
  /// active block's dump for it exists, passes its CRC, and agrees on the
  /// step counter.  Once every dump of the next epoch has landed, those
  /// not yet verified are verified concurrently and remembered, so a good
  /// dump is read once, and a rejected one (a torn write under the final
  /// name) only again once its file identity changes.  Cheap until then.
  void commit_epochs() {
    for (;;) {
      const long e = committed_.epoch + 1;
      std::vector<std::string> landed;
      std::vector<std::size_t> index;
      std::vector<FileId> ids;
      for (std::size_t i = 0; i < active_blocks_.size(); ++i) {
        if (verified_[i]) continue;
        std::string path = epoch::block_dump_path(workdir_, active_blocks_[i], e);
        const std::optional<FileId> id = file_id(path);
        if (!id) return;                   // not all landed yet
        if (id == rejected_[i]) return;    // still the dump it rejected
        landed.push_back(std::move(path));
        index.push_back(i);
        ids.push_back(*id);
      }
      const auto infos = epoch::verify(landed);
      for (std::size_t k = 0; k < index.size(); ++k) {
        verified_[index[k]] = infos[k];
        if (infos[k]) continue;
        rejected_[index[k]] = ids[k];
        session_.metrics().counter(-1, "ckpt.verify_rejected").add();
      }
      if (!verified_[0]) return;  // torn or corrupt: not this epoch yet
      // Block ids: the unit of every dump.
      epoch::Manifest m{e, verified_[0]->step, active_blocks_};
      for (const auto& info : verified_) {
        if (!info) return;
        if (info->step != m.step) {
          verified_.assign(verified_.size(), std::nullopt);
          return;
        }
      }
      {
        telemetry::ScopedSpan span(&session_, -1, "ckpt.commit", "ckpt",
                                   m.step);
        epoch::commit(workdir_, m);
      }
      committed_ = std::move(m);
      verified_.assign(verified_.size(), std::nullopt);
      rejected_.assign(rejected_.size(), std::nullopt);
    }
  }

  /// SIGKILL and reap every live child; nothing is worth keeping orphans
  /// alive for a graceful flush once the cohort cannot continue.
  void emergency_stop() {
    for (Child& c : children_)
      if (!c.reaped && c.pid > 0) ::kill(c.pid, SIGKILL);
    for (Child& c : children_) {
      if (c.reaped || c.pid <= 0) continue;
      int status = 0;
      while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
      }
      mark_reaped(c, status);
    }
  }

  /// Budget exhausted.  Puts every survivor down gracefully (their
  /// SIGTERM handlers publish telemetry), SIGKILLs what outlives the
  /// grace window, reaps everything, then fails the run naming the
  /// casualties.
  [[noreturn]] void fail_all(int g) {
    for (Child& c : children_) {
      if (c.reaped) continue;
      c.put_down = true;
      record("sigterm", c.rank, g, monitor_.last_step(c.rank));
      ::kill(c.pid, SIGTERM);
    }
    const double deadline = now_s() + grace_s_;
    auto reap_pass = [&](bool block) {
      for (Child& c : children_) {
        if (c.reaped) continue;
        int status = 0;
        if (::waitpid(c.pid, &status, block ? 0 : WNOHANG) != c.pid) continue;
        mark_reaped(c, status);
        rank_down(c.rank, WIFEXITED(status));
      }
    };
    while (now_s() < deadline) {
      reap_pass(false);
      bool live = false;
      for (const Child& c : children_)
        if (!c.reaped) live = true;
      if (!live) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (Child& c : children_) {
      if (c.reaped) continue;
      record("sigkill", c.rank, g, monitor_.last_step(c.rank));
      ::kill(c.pid, SIGKILL);
    }
    reap_pass(true);
    commit_epochs();

    std::vector<RankFailure> failures;
    for (const Child& c : children_)
      if (c.casualty)
        failures.push_back(
            {c.rank, c.status,
             (c.escalating ? "hung (heartbeat silence); " : "") +
                 describe_status(c.status)});
    fail(std::move(failures), "");
  }

  /// Removes the run-control files and throws the per-rank report;
  /// `where` follows each rank number (" on host <h>" when the launch
  /// itself failed).
  [[noreturn]] void fail(std::vector<RankFailure> failures,
                         const std::string& where) {
    remove_control_files(workdir_);
    std::ostringstream msg;
    msg << "parallel run failed after " << result_.restarts << " restart(s);";
    for (const RankFailure& f : failures)
      msg << " rank " << f.rank << where << ": " << f.detail << ';';
    throw ProcessRunError(msg.str(), std::move(failures));
  }

  const typename Traits::Mask& mask_;
  const FluidParams& params_;
  const Method method_;
  const typename Traits::BlockDecomp& bd_;
  const std::vector<int>& active_blocks_;
  const std::string& workdir_;
  const ProcessRunOptions& options_;
  const FaultPlan& faults_;
  telemetry::Session& session_;
  liveness::StatusBoard& board_;
  ProcessRunResult& result_;

  std::unique_ptr<launcher::Launcher> launcher_;
  rendezvous::Server server_;
  /// "rdv:127.0.0.1:<port>": the registry base every child coordinates
  /// through, a service endpoint rather than a file.
  const std::string registry_ = server_.endpoint();
  const std::string host_ = launcher::local_host_tag();
  const bool sockets_ = liveness::resolve_socket_channels(options_.liveness);
  const int floor_ms_ = liveness::resolve_floor_ms(options_.liveness);
  const double grace_s_ = std::max(options_.liveness.grace_ms, 1) * 1e-3;
  liveness::Monitor monitor_{floor_ms_ * 1e-3,
                             options_.liveness.deadline_multiplier};
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  void (*old_sigpipe_)(int) = nullptr;

  cohort::ChildConfig cfg_;  ///< the current segment's run-wide fields
  std::vector<Child> children_;
  std::vector<std::thread> taggers_;
  std::vector<std::string> harvested_traces_;
  int generation_ = 0;         ///< next unused round; counts every cohort
  epoch::Manifest committed_;
  /// The next epoch's dumps verified so far, in active_blocks_ order.
  std::vector<std::optional<CheckpointInfo>> verified_;
  /// The identity of each of its dumps that failed verification.
  std::vector<std::optional<FileId>> rejected_;
};

}  // namespace

template <int Dim>
ProcessRunResult run_supervised(const typename DomainTraits<Dim>::Mask& mask,
                                const FluidParams& params, Method method,
                                const GridShape& grid, int steps,
                                const std::string& workdir,
                                const ProcessRunOptions& options) {
  using Traits = DomainTraits<Dim>;
  params.validate();
  SUBSONIC_REQUIRE(steps >= 1);
  SUBSONIC_REQUIRE(options.checkpoint_interval >= 0);
  SUBSONIC_REQUIRE(options.max_restarts >= 0);
  SUBSONIC_REQUIRE(options.recv_deadline_ms >= 0);
  SUBSONIC_REQUIRE(options.rebalance_interval >= 0);
  SUBSONIC_REQUIRE(options.rebalance_threshold >= 1.0);

  const int ghost = required_ghost(method, params.filter_eps > 0.0);
  const int side = resolve_block_side(options.block_side);
  SUBSONIC_REQUIRE_MSG(options.rebalance_interval == 0 || side != 0,
                       "rebalancing needs blocks to move: set "
                       "options.block_side != 0");
  typename Traits::BlockDecomp bd =
      Traits::make_block_decomposition(mask, grid, side, ghost, params);

  const FaultPlan faults = options.faults.empty()
                               ? FaultPlan::from_env()
                               : FaultPlan::parse(options.faults);

  std::vector<int> active_blocks;
  for (int b = 0; b < bd.block_count(); ++b)
    if (bd.block_active(b)) active_blocks.push_back(b);

  // Fresh run-control state per run: a stale status.port from a crashed
  // prior run points at a dead listener, and only the committed epoch of
  // a run of this geometry survives start_of_run.  Port registration goes
  // through the in-memory rendezvous service, never the filesystem.
  remove_control_files(workdir);
  const std::optional<epoch::Manifest> resume =
      start_of_run<Dim>(workdir, bd, active_blocks, method, ghost);
  std::remove((workdir + "/trace.json").c_str());
  std::remove((workdir + "/run_summary.json").c_str());
  std::remove((workdir + "/supervisor.metrics.jsonl").c_str());

  // The supervisor's own session: every child inherits its trace origin,
  // so the merged trace.json has one consistent timeline across ranks.
  const bool trace_on =
      options.trace > 0 ||
      (options.trace < 0 && telemetry::trace_enabled_from_env());
  telemetry::SessionConfig sup_cfg;
  sup_cfg.trace = trace_on;
  telemetry::Session session(sup_cfg);

  // A continuation resumes from the kept epoch: checkpoints and
  // kill-step offsets count from its step.
  const long start_step = resume ? resume->step : 0;
  const long target_step = start_step + steps;

  ProcessRunResult result;
  result.blocks = bd.block_count();
  result.final_step = target_step;
  result.block_owner = bd.owner_map();
  if (active_blocks.empty()) return result;

  // The board is the run's one view of rank telemetry: it folds each
  // rank's metrics snapshot when a child dies or a segment ends, and its
  // view (folded totals plus the current snapshot) feeds the final
  // aggregation below.  The endpoint serves the same board, and only when
  // a status port was requested; neither can touch simulation state.
  liveness::StatusBoard board;
  Supervisor<Dim> sup(mask, params, method, bd, active_blocks, workdir,
                      options, faults, session, board, result, resume);
  {
    liveness::StatusBoard::Config bc;
    bc.workdir = workdir;
    bc.ranks = bd.active_ranks();
    for (int rank : bc.ranks) {
      double fluid = 0;
      for (int b : bd.blocks_of(rank))
        fluid += static_cast<double>(
            mask.count_box(bd.box(b), NodeType::kFluid));
      bc.fluid_cells.push_back(fluid);
    }
    bc.start_step = start_step;
    bc.target_step = target_step;
    bc.dims = Dim;
    bc.blocks = bd.block_count();
    bc.supervisor = &session;
    bc.hosts.assign(bc.ranks.size(), sup.host());
    bc.launcher = sup.launcher_name();
    board.configure(std::move(bc));
    board.set_owner_map(bd.owner_map());
  }
  std::unique_ptr<HttpStatusServer> http;
  const int want_port = resolve_status_port(options.status_port);
  if (want_port >= 0) {
    http = std::make_unique<HttpStatusServer>(
        want_port, [&board](const std::string& path, std::string* body,
                            std::string* ct) {
          return board.handle(path, body, ct);
        });
    std::ofstream pf(workdir + "/status.port", std::ios::trunc);
    pf << http->port() << "\n";
  }

  // What every child shares; run_cohort sets the per-spawn fields.
  cohort::ChildConfig cfg;
  cfg.start_step = start_step;
  cfg.checkpoint_interval = options.checkpoint_interval;
  cfg.recv_deadline_ms = options.recv_deadline_ms;
  cfg.sched = options.sched;
  // Resolved here, before the first spawn: a malformed SUBSONIC_THREADS
  // or SUBSONIC_SIMD fails the run once instead of killing every rank in
  // turn.  (The ranks read SUBSONIC_SIMD again for their own kernels.)
  cfg.threads = resolve_threads(options.threads);
  simd_from_env();
  cfg.trace = trace_on;
  cfg.origin_ns = session.origin_ns();
  cfg.beacon_interval_ms = options.liveness.beacon_interval_ms;
  cfg.metrics_flush_interval =
      resolve_metrics_flush_interval(options.metrics_flush_interval);

  // The ranks of the *last* segment, for the final aggregation below.
  std::vector<int> active_list = bd.active_ranks();
  result.processes = static_cast<int>(active_list.size());

  long cur_step = start_step;
  while (cur_step < target_step) {
    cfg.target_step =
        options.rebalance_interval > 0
            ? std::min(target_step, cur_step + options.rebalance_interval)
            : target_step;
    active_list = bd.active_ranks();
    result.processes = static_cast<int>(active_list.size());

    // Exec children rebuild the segment's world from the spec file, so it
    // must carry the owner map in force *this* segment (rebalances rewrite
    // it between segments).
    if (std::string(sup.launcher_name()) != "fork") {
      cohort::CohortSpec cs;
      cs.set_mask(mask);
      cs.method = method;
      cs.block_side = side;
      cs.grid = grid;
      cs.params = params;
      cs.owner = bd.owner_map();
      cohort::write_cohort_spec(spec_path(workdir), cs);
    }

    sup.run_cohort(active_list, cfg);
    cur_step = cfg.target_step;

    // Between segments, fold each rank's snapshot into the board's totals
    // (the next cohort's children publish fresh ones), and feed the
    // segment's per-block compute timers to the rebalance decision.  The
    // last segment's snapshots stay on disk as the run's per-rank record.
    if (cur_step < target_step) {
      std::vector<BlockCost> costs;
      costs.reserve(active_blocks.size());
      for (int rank : active_list) {
        const telemetry::RankMetrics rm = board.fold(rank, false);
        for (int b : bd.blocks_of(rank)) {
          BlockCost c;
          c.block = b;
          c.cells = bd.block_cells(b);
          const auto it =
              rm.timers.find("compute.block_" + std::to_string(b));
          if (it != rm.timers.end()) c.t_calc_s = it->second.total_s;
          costs.push_back(c);
        }
      }
      const RebalanceDecision decision =
          propose_rebalance(bd.owner_map(), costs, bd.rank_count(),
                            options.rebalance_threshold);
      if (decision.rebalance) {
        bd.set_owner_map(decision.owner);
        telemetry::RebalanceRecord rec;
        rec.step = cur_step;
        rec.moved_blocks = static_cast<int>(decision.moves.size());
        rec.imbalance_before = decision.imbalance_before;
        rec.imbalance_after = decision.imbalance_after;
        result.rebalances.push_back(rec);
        board.on_rebalance(rec);
        board.set_owner_map(bd.owner_map());
        session.metrics().counter(-1, "rebalance.count").add();
        session.metrics()
            .counter(-1, "rebalance.moved_blocks")
            .add(rec.moved_blocks);
        std::fprintf(stderr,
                     "[supervisor] rebalance at step %ld: %d block(s) move, "
                     "imbalance %.2f -> %.2f\n",
                     rec.step, rec.moved_blocks, rec.imbalance_before,
                     rec.imbalance_after);
      }
    }
  }
  std::remove(spec_path(workdir).c_str());
  board.set_done(true);
  result.committed_epoch = sup.committed().epoch;
  result.final_step = sup.committed().step;
  result.block_owner = bd.owner_map();

  // Aggregate the board's view of every rank into run_summary.json: the
  // measured T_calc / T_com next to the paper model's predicted f.
  std::vector<telemetry::RankMetrics> rank_metrics;
  rank_metrics.reserve(active_list.size());
  for (int rank : active_list) rank_metrics.push_back(board.view(rank));

  telemetry::RunModelInputs model;
  model.dims = Dim;
  model.processes = static_cast<int>(active_list.size());
  double owned_nodes = 0;
  for (int b : active_blocks)
    owned_nodes += static_cast<double>(bd.box(b).count());
  model.nodes_per_rank = owned_nodes / static_cast<double>(active_list.size());
  // Doubles shipped per boundary node per step, from the schedule actually
  // run: each exchange phase ships |fields| doubles per node per ghost
  // layer.
  double doubles_per_node = 0;
  for (const Phase& phase : Traits::make_schedule(method))
    if (phase.kind == Phase::Kind::kExchange)
      doubles_per_node += static_cast<double>(phase.fields.size());
  model.comm_doubles_per_node = doubles_per_node * ghost;
  model.rank_weights.reserve(active_list.size());
  for (int rank : active_list) {
    double fluid = 0;
    for (int b : bd.blocks_of(rank))
      fluid += static_cast<double>(
          mask.count_box(bd.box(b), NodeType::kFluid));
    model.rank_weights.push_back(fluid);
  }

  telemetry::RunSummary summary =
      telemetry::summarize_run(rank_metrics, model, result.restarts);
  result.rank_metrics = std::move(rank_metrics);
  summary.blocks = bd.block_count();
  summary.rebalances = result.rebalances;
  summary.liveness = result.liveness;
  result.summary_path = workdir + "/run_summary.json";
  telemetry::write_run_summary(summary, result.summary_path);
  session.flush_metrics_delta(workdir + "/supervisor.metrics.jsonl");
  if (trace_on) {
    std::vector<std::string> traces = sup.harvested_traces();
    traces.reserve(traces.size() + active_list.size());
    for (int rank : active_list)
      traces.push_back(cohort::rank_trace_path(workdir, rank));
    telemetry::merge_chrome_traces(traces, workdir + "/trace.json");
  }
  if (http) {
    http.reset();  // stop serving before the port file disappears
    std::remove((workdir + "/status.port").c_str());
  }
  return result;
}

template ProcessRunResult run_supervised<2>(const Mask2D&, const FluidParams&,
                                            Method, const GridShape&, int,
                                            const std::string&,
                                            const ProcessRunOptions&);
template ProcessRunResult run_supervised<3>(const Mask3D&, const FluidParams&,
                                            Method, const GridShape&, int,
                                            const std::string&,
                                            const ProcessRunOptions&);

}  // namespace subsonic
