// The supervised process runtime, dimension-generic: each active
// subregion runs in a real UNIX process, exactly as in the paper — "the
// job-submit program ... begins a parallel subprocess on each workstation"
// — with TCP/IP sockets between the processes and a port-registry
// handshake the supervisor serves (rendezvous.hpp).  A process steps the
// blocks an owner map gives it; by default there is one block per rank,
// the paper's layout, and an over-decomposed run cuts each subregion into
// several blocks that can move between ranks.  The run's one state store
// is its committed checkpoint epochs (epoch_store.hpp): the staggered
// saves, the restart state, and — as the epoch every cohort captures at
// its target step — the final state, which a later call continues from
// and gather.hpp reassembles into the result.
//
// The parent is a *supervisor*: it reaps children out of order with
// waitpid(WNOHANG), commits staggered checkpoint epochs (an epoch MANIFEST
// is written only once every active block's dump is durable and CRC-clean),
// pumps every child's heartbeat pipe through a hung-rank watchdog, and on
// a casualty — an abnormal exit, or heartbeat silence past the adaptive
// deadline (escalated SIGTERM -> grace -> SIGKILL) — restarts *only* the
// dead rank from the newest complete epoch while the survivors roll back
// in-process, up to a bounded restart budget (liveness.hpp).  Comm
// deadlines inside the children turn a dead neighbour into a clean child
// exit the supervisor can act on — a failed rank can slow a run down, but
// it can neither hang it nor corrupt its results.
//
// run_supervised<Dim> is the single implementation, instantiated for 2D
// and 3D.  When options.rebalance_interval > 0 the
// supervisor runs the job in segments, folding per-block compute timers
// at every boundary and restarting the cohort under a rewritten owner map
// whenever the measured imbalance warrants it.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "src/runtime/domain_traits.hpp"
#include "src/runtime/liveness.hpp"
#include "src/solver/params.hpp"
#include "src/solver/pass.hpp"
#include "src/telemetry/summary.hpp"

namespace subsonic {

/// ProcessRunOptions::status_port value that requests an ephemeral port
/// regardless of the environment (tests and tools read the bound port
/// back from <workdir>/status.port).
constexpr int kStatusPortEphemeral = -2;

struct ProcessRunOptions {
  /// Per-step ordering, exactly as in BlockedDriver; the overlap
  /// schedule posts each boundary band as soon as it is computed.
  Scheduling sched = Scheduling::kOverlap;

  /// Intra-subregion worker count inside each child (0 = SUBSONIC_THREADS
  /// env or 1, resolved before the first spawn); bitwise neutral.
  int threads = 0;

  /// Steps between staggered epoch checkpoints (0 = none mid-run: only
  /// the epoch every cohort captures at its target step, the final state).
  /// Each rank snapshots its state at every interval boundary and flushes
  /// the bytes to disk a few steps later, staggered by rank — the paper's
  /// orderly staggered state saving, which keeps the ranks from hitting
  /// the disk in lockstep.  A crash restores the newest committed epoch,
  /// so without mid-run epochs it replays from the run's start.
  int checkpoint_interval = 0;

  /// How many times the supervisor may respawn the cohort after an
  /// abnormal child exit before giving up with a per-rank report.
  int max_restarts = 2;

  /// Per-recv deadline inside the children (0 = block forever).  With a
  /// deadline, a rank whose neighbour died exits cleanly within the bound
  /// instead of hanging in recv.
  int recv_deadline_ms = 10000;

  /// Fault-injection spec (see src/util/fault_plan.hpp).  Empty means
  /// "read SUBSONIC_FAULTS from the environment", so CI can inject faults
  /// into an unmodified test suite; pass an explicit spec to pin a test's
  /// faults regardless of environment.
  std::string faults;

  /// Chrome-trace capture in the children and merged trace.json in the
  /// supervisor: 1 forces on, 0 forces off, -1 follows SUBSONIC_TRACE.
  /// Metrics snapshots are always published (their cost is one timer
  /// record per phase); tracing additionally records every span.
  int trace = -1;

  /// Block side.  0 (the default) makes one block per rank: block b is
  /// rank b's subregion of the (jx x jy [x jz]) grid.  -1 resolves via
  /// the SUBSONIC_BLOCKS environment variable with kDefaultBlockSide as
  /// the fallback; > 0 is an explicit target side that over-decomposes
  /// each subregion into several blocks.  Results are bitwise identical
  /// at any side; dumps are always per block (block_<b>.epoch_<e>.dump),
  /// and compute time is charged per block (compute.block_<b>).
  int block_side = 0;

  /// Steps between dynamic load-balance decision points (0 = never
  /// rebalance).  Requires block_side != 0 (one block per rank leaves
  /// nothing to move).  At each boundary the
  /// supervisor folds the per-block compute timers, and — when the
  /// measured per-rank imbalance exceeds rebalance_threshold — restarts
  /// the cohort under a rewritten block->rank owner map (block state moves
  /// through the segment boundary's committed epoch, so this is the
  /// paper's stop + save + restart migration at block granularity).
  int rebalance_interval = 0;

  /// Hysteresis: rebalance only while max/mean per-rank T_calc exceeds
  /// this (1.15 = 15% skew tolerated before blocks move).
  double rebalance_threshold = 1.15;

  /// Steps between each child's periodic metrics publications: the child
  /// replaces its rank_<r>.metrics.jsonl snapshot atomically (the
  /// supervisor's live view, and the prefix a SIGKILLed rank still
  /// contributes to run_summary.json, both read it).  0 =
  /// SUBSONIC_METRICS_FLUSH env, defaulting to 16; < 0 turns periodic
  /// publication off (published at exit only).  Observationally inert to
  /// the physics: results stay bitwise identical at any setting.
  int metrics_flush_interval = 0;

  /// Live status endpoint on 127.0.0.1 serving GET /healthz, /status
  /// (JSON: per-rank live view, owner map, liveness + rebalance tails)
  /// and /metrics (Prometheus text exposition).  0 = SUBSONIC_STATUS_PORT
  /// env (unset/empty/non-positive = off, "auto" = ephemeral port, a
  /// number up to 65535 = that port); -1 forces off; kStatusPortEphemeral
  /// (-2) forces an ephemeral port; > 0 binds that port, and one above
  /// 65535 throws.  The bound port is written to <workdir>/status.port
  /// while the run is in flight.  The integer SUBSONIC_* variables parse
  /// strictly (src/util/env_int.hpp): malformed text throws before any
  /// rank is spawned.
  int status_port = 0;

  /// Heartbeat watchdog + escalation policy (liveness.hpp): every child
  /// beacons over an inherited pipe; a rank silent past the adaptive
  /// deadline is SIGTERMed (graceful telemetry flush), then SIGKILLed
  /// after a grace window, and restarted *surgically* — survivors roll
  /// back in-process instead of being killed and re-forked.
  LivenessOptions liveness;

  /// How rank processes come to exist (launcher.hpp): "fork" runs the
  /// child body in-process after fork(), "exec" posix_spawns the
  /// subsonic_child binary, which rebuilds its world from the cohort spec
  /// file.  "" resolves SUBSONIC_LAUNCHER, defaulting to fork.  Results
  /// are bitwise identical either way.
  std::string launcher;
};

/// How one rank's process ended, for the supervisor's failure report.
struct RankFailure {
  int rank = -1;
  int wait_status = 0;  ///< raw waitpid() status
  std::string detail;   ///< human form: "exited 1", "killed by signal 9"
};

/// Thrown when the restart budget is exhausted (or was 0): the message is
/// the per-rank failure report, and `failures` carries it structured.
class ProcessRunError : public std::runtime_error {
 public:
  ProcessRunError(const std::string& what, std::vector<RankFailure> f)
      : std::runtime_error(what), failures(std::move(f)) {}
  std::vector<RankFailure> failures;
};

struct ProcessRunResult {
  int processes = 0;        ///< child processes per cohort (active subregions)
  long final_step = 0;      ///< step counter all subregions reached
  int restarts = 0;         ///< cohort respawns the supervisor performed
  long committed_epoch = -1;  ///< the final state's epoch (-1: no block)

  /// Per-active-rank telemetry of the last segment's ranks, ascending
  /// rank order: counters, timers and histograms folded across every
  /// segment, respawn round and killed rank, plus each rank's final
  /// snapshot.  t_calc() and t_com() are the measured T_calc and T_com of
  /// the efficiency model, utilization() their g.  The on-disk
  /// rank_<r>.metrics.jsonl snapshots hold only the last cohort of each
  /// rank: the supervisor folds and deletes a snapshot at every segment
  /// boundary and rank death.
  std::vector<telemetry::RankMetrics> rank_metrics;

  /// Path of the run_summary.json the supervisor wrote (empty when the
  /// run had no active ranks).  Holds measured T_calc/T_com/utilization
  /// per rank next to the paper-model predicted efficiency f.
  std::string summary_path;

  /// Block count (jx * jy [* jz] at one block per rank).
  int blocks = 0;

  /// Every dynamic load-balance event the supervisor performed, in step
  /// order (also logged into run_summary.json).
  std::vector<telemetry::RebalanceRecord> rebalances;

  /// Final block -> rank owner map (-1 for an inactive block).
  std::vector<int> block_owner;

  /// The watchdog's audit trail: every hang/exit detection, escalation
  /// rung, survivor rollback and surgical restart, in event order (also
  /// logged into run_summary.json).
  std::vector<telemetry::LivenessRecord> liveness;

  /// Total child processes forked over the whole run.  processes + the
  /// number of surgically restarted ranks — survivors are rolled back
  /// in-process and never re-forked, which this counter proves.
  int forks = 0;
};

/// Spawns one child per rank owning an active block of the `grid`
/// decomposition of `mask`, runs `steps` integration steps with boundary
/// exchange over real TCP sockets, and leaves the final state in
/// `workdir` (which must exist) as its last committed epoch: a
/// "block_<b>.epoch_<e>.dump" per active block and the MANIFEST naming e.
/// A committed epoch already there whose dumps match this run (dimension,
/// box, method, ghost width) is restored first, so repeated calls
/// continue the run; every other dump and MANIFEST is removed at
/// start-of-run, so e.g. a 2D run's leftovers can never poison a 3D run
/// sharing the directory.  Children are supervised per the options above;
/// throws ProcessRunError when the restart budget is exhausted or a rank
/// cannot be launched, with every child reaped and the run-control files
/// removed, and checkpoint_error naming the dump when the kept epoch holds
/// a torn one (before any spawn) or when a dump of a cohort's last epoch
/// fails verification after every rank exited cleanly.
template <int Dim>
ProcessRunResult run_supervised(const typename DomainTraits<Dim>::Mask& mask,
                                const FluidParams& params, Method method,
                                const GridShape& grid, int steps,
                                const std::string& workdir,
                                const ProcessRunOptions& options);

extern template ProcessRunResult run_supervised<2>(
    const Mask2D&, const FluidParams&, Method, const GridShape&, int,
    const std::string&, const ProcessRunOptions&);
extern template ProcessRunResult run_supervised<3>(
    const Mask3D&, const FluidParams&, Method, const GridShape&, int,
    const std::string&, const ProcessRunOptions&);

}  // namespace subsonic
