// Liveness layer for the supervised process runtime: heartbeats, a
// hung-rank watchdog, graceful escalation, and surgical per-rank restart.
//
// Every child inherits two pipes from the supervisor:
//
//   heartbeat pipe (child writes, supervisor reads) — the child emits a
//   fixed 32-byte beacon at every step boundary and, rate-limited, inside
//   every blocking transport wait.  32 <= PIPE_BUF, so writes are atomic
//   and the supervisor never sees a torn frame; the write end is
//   O_NONBLOCK so a stalled supervisor can only ever cost dropped
//   beacons, never a wedged child.  Beacons are all it carries: a rank's
//   metrics travel in its snapshot file (telemetry.hpp).
//
//   control pipe (supervisor writes, child reads) — carries 16-byte
//   rollback orders.  The supervisor writes the order *first*, then sends
//   SIGUSR1; the child's handler only raises a flag, so by the time the
//   child notices the flag the order is already sitting in the pipe and
//   the follow-up read cannot block.
//
// The watchdog declares a rank hung when it has been *silent* — no beacon
// of any phase — longer than an adaptive deadline:
//
//   deadline = max(floor, multiplier * EWMA(step time))
//
// A rank stuck in a long exchange still beacons (phase kWait), so waits
// are never mistaken for hangs; waits are already bounded separately by
// the transport's recv deadline.  What the watchdog catches is what no
// deadline inside the child can: livelocked compute, a SIGSTOP'd or
// swapped-out process, and total silence.
//
// Escalation is a two-step ladder: SIGTERM (the child's handler publishes
// its metrics snapshot and exits with kTermAckExit), then SIGKILL after a
// grace window.  Recovery is *surgical*: only dead ranks are re-forked;
// survivors receive a rollback order and restore from the newest committed
// epoch in-process, which is bitwise identical to a fresh fork because the
// child rebuilds its Domain from scratch every round.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/summary.hpp"

namespace subsonic {

namespace telemetry {
class Session;
}

/// Watchdog / escalation policy, part of ProcessRunOptions.
struct LivenessOptions {
  /// Master switch: when false the heartbeat plumbing still runs (rounds
  /// and rollbacks need it) but silence never triggers an escalation.
  bool watchdog = true;
  /// Silence floor in ms; 0 = SUBSONIC_HEARTBEAT_MS env, else 5000.  The
  /// floor must cover child startup (fork + restore + connect), which
  /// emits no beacons between the initial kStart and the first wait.
  int heartbeat_floor_ms = 0;
  /// Deadline = max(floor, multiplier * EWMA step time) — a run whose
  /// steps take seconds gets a proportionally patient watchdog.
  double deadline_multiplier = 8.0;
  /// Minimum spacing of kWait beacons (and the transport's wait-slice).
  int beacon_interval_ms = 50;
  /// SIGTERM -> SIGKILL grace window in ms.
  int grace_ms = 2000;
  /// Heartbeat/control transport: 0 resolves SUBSONIC_LIVENESS_CHANNEL
  /// ("socket" switches, anything else keeps pipes), 1 forces sockets,
  /// -1 forces pipes.  Pipes are the single-host fast path; sockets are
  /// dialed back through the supervisor's rendezvous service, so they
  /// work for children that inherit no fds (and later, other hosts).
  /// Bitwise neutral to the physics either way.
  int socket_channels = 0;
};

namespace liveness {

/// Exit code of a child that took the SIGTERM escalation gracefully
/// (flushed telemetry, then exited).  Distinct from the runtime's 0-3 so
/// the supervisor can tell a put-down from a casualty.
constexpr int kTermAckExit = 4;

/// Resolves the silence floor: explicit option > SUBSONIC_HEARTBEAT_MS
/// env > 5000 ms default.
int resolve_floor_ms(const LivenessOptions& options);

/// Resolves LivenessOptions::socket_channels (see there).
bool resolve_socket_channels(const LivenessOptions& options);

/// "<base>.g<round>" — the per-round port registry.  Every recovery round
/// gets a fresh registry so a respawned rank can never connect to a dead
/// listener from the previous round.
std::string registry_for(const std::string& base, int round);

/// Removes every "ports*" file in `workdir` (start-of-run hygiene and
/// end-of-run cleanup for the per-round registries).
void remove_port_registries(const std::string& workdir);

enum class Phase : std::int32_t {
  kStart = 0,  ///< top of a round (spawn or rollback)
  kStep = 1,   ///< a step boundary was crossed
  kWait = 2,   ///< alive inside a blocking transport wait
};

struct Beacon {
  int rank = -1;
  Phase phase = Phase::kStart;
  std::int32_t round = 0;  ///< recovery round (supervisor generation)
  std::int64_t step = 0;
  std::int64_t mono_ns = 0;  ///< child's monotonic clock at emission
};

constexpr std::size_t kBeaconBytes = 32;
void encode_beacon(const Beacon& b, unsigned char out[kBeaconBytes]);
/// False when the frame is not a valid beacon (bad magic or phase).
bool decode_beacon(const unsigned char in[kBeaconBytes], Beacon* out);

/// A supervisor -> child rollback order: abort the current round, restore
/// `epoch` (or the legacy final dump when -1), rejoin as round `round`.
struct RollbackMsg {
  std::int32_t round = 0;
  std::int64_t epoch = -1;
};

constexpr std::size_t kRollbackBytes = 16;
void encode_rollback(const RollbackMsg& m, unsigned char out[kRollbackBytes]);
bool decode_rollback(const unsigned char in[kRollbackBytes], RollbackMsg* out);

/// Blocking-reads one rollback order from `fd`, then drains any newer
/// orders already queued (a second recovery can overtake a slow child)
/// and returns the newest.  The return value is the number of orders
/// consumed — the caller balances it against the SIGUSR1 count, since
/// the supervisor sends exactly one signal per order.  0 on EOF /
/// error — the supervisor died.
int read_rollback(int fd, RollbackMsg* out);

long long mono_now_ns();

/// Child-side beacon writer.  Thread-safe: the main loop emits kStart /
/// kStep while the transport's sender thread pumps wait_tick().
class Emitter {
 public:
  Emitter() = default;
  Emitter(int fd, int rank, int interval_ms);

  /// False once muted or when no heartbeat fd was inherited.
  bool active() const { return fd_ >= 0 && !muted_.load(std::memory_order_relaxed); }

  void set_round(int round) { round_.store(round, std::memory_order_relaxed); }

  /// The mute fault: stop emitting forever (the process keeps running).
  void mute() { muted_.store(true, std::memory_order_relaxed); }

  /// Unconditional beacon (round start, step boundary).
  void emit(Phase phase, long step);

  /// Rate-limited kWait beacon carrying the last emitted step; called
  /// from inside every blocking transport wait.
  void wait_tick();

 private:
  void write_beacon(Phase phase, long step);

  int fd_ = -1;
  int rank_ = -1;
  long long interval_ns_ = 50 * 1000 * 1000LL;
  std::atomic<int> round_{0};
  std::atomic<bool> muted_{false};
  std::atomic<long> last_step_{0};
  std::atomic<long long> last_ns_{0};
};

/// Adaptive silence deadline: EWMA of observed step times, floored.
struct DeadlineModel {
  double floor_s = 5.0;
  double multiplier = 8.0;
  double ewma_step_s = 0;

  void observe_step(double dt_s);
  double deadline_s() const;
};

/// Supervisor-side heartbeat reader + watchdog state, one entry per live
/// child.  Feed it wall time explicitly so the deadline math is testable
/// without sleeping.
class Monitor {
 public:
  Monitor(double floor_s, double multiplier);

  /// Registers `rank`'s heartbeat read fd (set O_NONBLOCK by the caller).
  /// `round` seeds observed_round; `now_s` starts the silence clock.
  void attach(int rank, int fd, int round, double now_s);
  void detach(int rank);
  bool attached(int rank) const;

  /// Restarts the silence clock after a rollback order was sent: the
  /// survivor is about to spend floor-bounded time restoring, and the
  /// silence it accrued waiting on the dead rank must not count.
  void on_recovery_signal(int rank, int round, double now_s);

  /// Drains every heartbeat pipe and updates per-rank state.
  void poll(double now_s);

  /// Ranks that crossed their silence deadline since the last call; each
  /// rank is reported exactly once per attach/recovery cycle.
  std::vector<int> newly_hung(double now_s);

  /// Last step the rank reported (kStart resets it — rollbacks rewind).
  long last_step(int rank) const;
  /// Newest round seen in a beacon (or the attach/signal seed).
  int observed_round(int rank) const;
  double silence_s(int rank, double now_s) const;
  double deadline_s(int rank) const;
  /// Proof of life: has the rank beaconed at or after `t_s`?  Unattached
  /// ranks count as fresh (they are not the watchdog's problem).
  bool beaconed_since(int rank, double t_s) const;

 private:
  struct State {
    int fd = -1;
    int round = -1;
    long step = -1;
    long long last_step_mono = -1;
    double last_beacon_s = 0;
    bool hung = false;
    DeadlineModel model;
    std::string buf;  ///< partial-beacon carry between polls
  };

  double floor_s_;
  double multiplier_;
  std::map<int, State> states_;
};

/// SIGTERM -> grace -> SIGKILL ladder for one child.
struct Escalation {
  enum class Action { kNone, kSigterm, kSigkill };

  double term_at_s = -1;
  bool killed = false;

  /// Next rung to execute, at most one SIGTERM and one SIGKILL ever.
  Action next(double now_s, double grace_s);
};

/// One rank the engine gave up on, handed to EngineHooks::fail.
struct EngineFailure {
  int rank = -1;
  int status = 0;  ///< waitpid status
  bool hung = false;
};

/// Runtime-specific callbacks the CohortEngine drives.  `spawn` forks the
/// child (closing `close_in_child` in the child branch before entering
/// child_main); the rest may be null.
struct EngineHooks {
  std::function<pid_t(int rank, int generation, long restore_epoch,
                      int heartbeat_fd, int control_fd,
                      const std::vector<int>& close_in_child)>
      spawn;
  /// Socket-channel mode: set when the heartbeat/control channels are
  /// dialed back by the child instead of inherited.  The engine then
  /// passes -1 fds to `spawn` and calls this right after, blocking until
  /// the child's channels arrive; returns {hb_read, ctl_write}, or
  /// {-1, -1} on timeout — the watchdog then treats the rank as silent
  /// and escalates normally.  Unset = pipe mode, bitwise the old path.
  std::function<std::pair<int, int>(int rank)> adopt_channels;
  /// Placement tag for liveness records and /status ("" when unset).
  std::function<std::string(int rank)> host_of;
  std::function<void()> poll_epochs;
  std::function<long()> committed_epoch;
  /// Called before each round's spawns/rollbacks with the round number
  /// and restore epoch: registry hygiene, divergence cleanup.
  std::function<void(int generation, long restore_epoch)> begin_generation;
  /// A child of this rank died mid-run (casualty or put-down): fold its
  /// last metrics snapshot before a respawn replaces it.  `flushed` is
  /// true when the child ran its exit path (exited kTermAckExit or
  /// cleanly), so its snapshot is complete; false for a SIGKILL / crash,
  /// where only the last periodic snapshot survives and the fold is
  /// tagged partial.
  std::function<void(int rank, bool flushed)> on_rank_down;
  /// Every liveness record as it is appended to the audit trail (live
  /// view; the record also lands in the records vector as before).
  std::function<void(const telemetry::LivenessRecord&)> on_liveness;
  /// Restart budget exhausted: every child has been reaped; must throw.
  std::function<void(const std::vector<EngineFailure>& failures)> fail;
};

/// The supervision loop, run once per segment: spawn a cohort, pump
/// heartbeats, reap, watchdog, escalate, and recover surgically until
/// every rank finished the current round cleanly.
class CohortEngine {
 public:
  CohortEngine(std::vector<int> ranks, const LivenessOptions& options,
               int max_restarts, EngineHooks hooks,
               telemetry::Session* supervisor,
               std::vector<telemetry::LivenessRecord>* records, int* restarts,
               int* forks);
  ~CohortEngine();

  CohortEngine(const CohortEngine&) = delete;
  CohortEngine& operator=(const CohortEngine&) = delete;

  /// Runs one cohort job to clean completion of every rank, starting at
  /// *generation and restoring `initial_restore_epoch` (-1 = legacy /
  /// fresh).  Recovery rounds advance *generation; on return it holds the
  /// next unused generation.  Throws whatever hooks.fail throws once a
  /// casualty lands with no restart budget left.
  void run(int* generation, long initial_restore_epoch);

 private:
  struct Child {
    int rank = -1;
    pid_t pid = -1;
    int hb_read = -1;
    int ctl_write = -1;
    bool reaped = true;
    bool done = false;
    bool casualty = false;
    bool escalating = false;
    bool put_down = false;
    int status = 0;
    int spawn_round = -1;
    Escalation esc;
  };

  double now_s() const;
  void record(const char* event, int rank, int generation, long step,
              double silence_s, double deadline_s, long epoch);
  void spawn_one(Child& c, int generation, long restore_epoch);
  void close_child_fds(Child& c);
  /// Tears the cohort down after a spawn failure mid-round: SIGKILL +
  /// blocking reap of every live child, so the SpawnError can propagate
  /// with no orphans left behind.
  void emergency_stop();
  [[noreturn]] void fail_all(int generation);

  std::vector<Child> children_;
  LivenessOptions options_;
  double floor_s_;
  double grace_s_;
  int max_restarts_;
  EngineHooks hooks_;
  telemetry::Session* supervisor_;
  std::vector<telemetry::LivenessRecord>* records_;
  int* restarts_;
  int* forks_;
  Monitor monitor_;
  std::chrono::steady_clock::time_point origin_;
  void (*old_sigpipe_)(int) = nullptr;
};

}  // namespace liveness

}  // namespace subsonic
