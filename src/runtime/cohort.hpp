// The child half of the supervised process runtime, dimension-generic.
// A "cohort" is one spawned generation of rank processes; this header
// carries the per-child configuration, the staggered-checkpoint pending
// queue, and child_main<Dim> — the body every rank process runs: build
// the blocks the owner map gives it (restoring each block's epoch or
// final dump), loop compute/exchange until target_step, save staggered
// epoch checkpoints, dump every block, exit.  The supervisor
// (supervisor.hpp) spawns, reaps and respawns cohorts.
#pragma once

#include <string>
#include <vector>

#include "src/runtime/domain_traits.hpp"
#include "src/solver/pass.hpp"
#include "src/util/fault_plan.hpp"

namespace subsonic {
namespace cohort {

/// "rank_<r>.metrics.jsonl" in `workdir`: one child's metrics snapshot.
std::string metrics_path(const std::string& workdir, int rank);

/// "rank_<r>.trace.json" in `workdir`: one child's Chrome-trace capture.
std::string rank_trace_path(const std::string& workdir, int rank);

/// "block_<b>.dump" in `workdir`: the final-state dump of one block, left
/// by a clean child (and restored from on a continuation run).  Keyed by
/// block id — never by rank — so a continuation run restores correctly
/// under a rewritten owner map.
std::string legacy_block_dump_path(const std::string& workdir, int block);

/// Parent-side half of the child-stderr tagging pipe: reads the child's
/// stderr line by line and re-emits each line onto the supervisor's
/// stderr prefixed "[rank r]", so interleaved output from a cohort stays
/// attributable.  Runs until EOF (every write end of the pipe closed,
/// i.e. the child exited); fprintf keeps each line atomic.
void tag_child_stderr(int fd, int rank);

/// Everything one child process needs beyond the physics inputs: its
/// identity within the current supervisor generation, where to resume
/// from, and the checkpoint/deadline/fault policy.
struct ChildConfig {
  int rank = -1;
  int generation = 0;     ///< supervisor respawn counter (0 = first cohort)
  long target_step = 0;   ///< run until domain.step() reaches this
  long start_step = 0;    ///< step the run as a whole began at
  /// Step the whole *run* ends at (>= target_step; a rebalancing run
  /// proceeds in segments, so one cohort's target may sit mid-run).  Epoch
  /// checkpoints are captured up to the run's end but not at it — the
  /// final state is the legacy dump — which keeps the epoch numbering
  /// gap-free across segment boundaries.
  long final_target = 0;
  long restore_epoch = -1;  ///< epoch dump to restore (-1: legacy/fresh)
  int checkpoint_interval = 0;
  int stagger_index = 0;  ///< this rank's index in the active list
  int recv_deadline_ms = 0;
  Scheduling sched = Scheduling::kOverlap;
  int threads = 0;
  bool trace = false;        ///< record Chrome-trace spans in this child
  long long origin_ns = -1;  ///< supervisor's trace origin, so per-rank
                             ///< traces merge onto one timeline
  /// Liveness plumbing (liveness.hpp): write end of the heartbeat pipe
  /// and read end of the supervisor control pipe; -1 = not supervised
  /// (no beacons, no in-process rollback).
  int heartbeat_fd = -1;
  int control_fd = -1;
  /// Socket-channel mode: the supervisor's rendezvous endpoint
  /// ("rdv:<host>:<port>").  When set and the fds above are -1, the child
  /// dials its heartbeat and control channels back through the rendezvous
  /// service instead of inheriting pipes — the transport for launchers
  /// whose children share no file descriptors with the supervisor.
  std::string channel_endpoint;
  int beacon_interval_ms = 50;  ///< min spacing of kWait beacons
  /// Steps between periodic publications of the rank's metrics
  /// snapshot.  0 = off (published at exit only).
  int metrics_flush_interval = 0;
};

/// A checkpoint of one block captured in memory at its epoch step but
/// flushed to disk a few steps later — the paper's orderly *staggered*
/// state saving.  Deferring only the write (never the capture) keeps every
/// block's dump for an epoch at the same logical step.
struct PendingBlockDump {
  int block = -1;
  long epoch = 0;
  long flush_step = 0;  ///< write once the blocks' step reaches this
  std::vector<char> bytes;
};

/// Writes one pending block dump.  A matching torn_dump fault writes only
/// the front half of the bytes straight to the final path (no tmp+rename)
/// and kills the process — simulating a rank dying mid-write without the
/// atomic protocol.  Restart must then treat the file as garbage.
void flush_block_dump(const PendingBlockDump& p, const ChildConfig& cfg,
                      const std::string& workdir, const FaultPlan& faults);

/// The body of one rank process: steps every block the owner map assigns
/// to it (a BlockSet) over a TcpEndpoint, with per-*block* epoch
/// checkpoints and final dumps.  Never returns normally — the child must
/// not unwind into the parent's runtime state.  Injected faults fire here:
/// a kill fault SIGKILLs the process at its step *before* pending epoch
/// dumps for that step are flushed, a delay_connect fault stalls the rank
/// before it registers, and the slow fault busy-spins inside the
/// per-block compute timers, making the rank look like a genuinely slow
/// host to the rebalancer.
///
/// `registry` is the *base* port-registry path: each recovery round uses
/// liveness::registry_for(registry, round).  The child runs rounds in a
/// loop — on a SIGUSR1 rollback order from the supervisor it abandons
/// the current round (endpoint_aborted out of any blocking wait), reads
/// the new round + restore epoch from control_fd, rebuilds its blocks
/// from scratch and rejoins, which is bitwise identical to being
/// re-forked.  SIGTERM publishes the metrics snapshot and exits with
/// liveness::kTermAckExit.
template <int Dim>
[[noreturn]] void child_main(const typename DomainTraits<Dim>::Mask& mask,
                             const FluidParams& params, Method method,
                             const typename DomainTraits<Dim>::BlockDecomp& bd,
                             const ChildConfig& cfg,
                             const std::string& workdir,
                             const std::string& registry,
                             const FaultPlan& faults);

extern template void child_main<2>(const Mask2D&, const FluidParams&, Method,
                                   const BlockDecomposition2D&,
                                   const ChildConfig&, const std::string&,
                                   const std::string&, const FaultPlan&);
extern template void child_main<3>(const Mask3D&, const FluidParams&, Method,
                                   const BlockDecomposition3D&,
                                   const ChildConfig&, const std::string&,
                                   const std::string&, const FaultPlan&);

}  // namespace cohort
}  // namespace subsonic
