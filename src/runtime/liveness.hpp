// Liveness layer for the supervised process runtime: heartbeats, a
// hung-rank watchdog, graceful escalation, and surgical per-rank restart.
// These are the pieces the child and the supervisor share; the
// supervision loop that drives them lives in supervisor.cpp.
//
// Every child inherits two pipes from the supervisor (or, with socket
// channels, dials both at its rendezvous registry; the frames are the
// same):
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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace subsonic {

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
  /// ("socket" switches; unset, empty or "pipe" keeps pipes; any other
  /// text throws std::invalid_argument), 1 forces sockets, -1 forces
  /// pipes.  Pipes are the single-host fast path; sockets are
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
/// env > 5000 ms default.  The variable must be a positive integer;
/// anything else throws std::invalid_argument naming it.
int resolve_floor_ms(const LivenessOptions& options);

/// Resolves LivenessOptions::socket_channels (see there).
bool resolve_socket_channels(const LivenessOptions& options);

/// "<base>.g<round>" — the per-round registry name.  Every recovery round
/// registers afresh (a rendezvous round on an "rdv:" base) so a respawned
/// rank can never connect to a dead listener from the previous round.
std::string registry_for(const std::string& base, int round);

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
/// the committed `epoch` (or the fresh state when -1), rejoin as round
/// `round`.
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
  /// silence it accrued waiting on the dead rank must not count.  The
  /// observed round stays: only a beacon of the new round proves the rank
  /// took the order, rather than finishing the old round.
  void on_recovery_signal(int rank, double now_s);

  /// Drains every heartbeat pipe and updates per-rank state.
  void poll(double now_s);

  /// Ranks that crossed their silence deadline since the last call; each
  /// rank is reported exactly once per attach/recovery cycle.
  std::vector<int> newly_hung(double now_s);

  /// Last step the rank reported (kStart resets it — rollbacks rewind).
  long last_step(int rank) const;
  /// Newest round seen in a beacon (or the attach seed).
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

}  // namespace liveness

}  // namespace subsonic
