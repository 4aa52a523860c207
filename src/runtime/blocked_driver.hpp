// The in-process parallel driver: one worker thread per rank owning at
// least one block, each running a BlockSet over the shared transport.  At
// block side 0 every rank owns exactly its own subregion, the paper's
// one-process-per-subregion layout (section 4); a side > 0 over-decomposes
// the same grid.  Synchronization is indirect, as in the paper: a worker
// blocks only when it lacks the boundary data its next compute phase
// needs, so neighbours drift apart by a bounded number of steps
// (appendix A).  Equivalence tests pin every layout bitwise to the serial
// driver, and the save_blocks/restore_blocks pair (a committed epoch of
// per-*block* dump files, the store a supervised run reads and leaves) is
// what makes a mid-run owner-map rewrite a pure re-assignment: save,
// rebuild the driver with the edited map, restore, continue.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/transport.hpp"
#include "src/runtime/block_set.hpp"
#include "src/runtime/domain_traits.hpp"
#include "src/runtime/sync_file.hpp"
#include "src/telemetry/summary.hpp"
#include "src/telemetry/telemetry.hpp"

namespace subsonic {

template <int Dim>
class BlockedDriver {
 public:
  using Traits = DomainTraits<Dim>;
  using Mask = typename Traits::Mask;
  using Domain = typename Traits::Domain;
  using BlockDecomp = typename Traits::BlockDecomp;
  using Field = typename Traits::Field;

  /// Over-decomposes `mask` into ~`block_side`-sided blocks seeded onto
  /// the `grid` rank layout.  `block_side` resolves through
  /// resolve_block_side: 0 is one block per rank, -1 SUBSONIC_BLOCKS with
  /// kDefaultBlockSide as the fallback.  If `transport` is null an
  /// InMemoryTransport is created internally.  `sched` picks the per-step
  /// phase ordering: kOverlap computes the boundary band first, posts the
  /// sends, computes the interior while the messages are in flight, and
  /// only then blocks on the receives; kLegacy is compute-everything-then-
  /// exchange.  Both produce bitwise identical fields.  `threads` is the
  /// intra-block worker count (0 = SUBSONIC_THREADS env or 1), nested
  /// under the one-thread-per-rank parallelism and bitwise neutral too.
  BlockedDriver(const Mask& mask, const FluidParams& params, Method method,
                const GridShape& grid, int block_side,
                std::shared_ptr<Transport> transport = nullptr,
                Scheduling sched = Scheduling::kOverlap, int threads = 0);

  /// Same, over an explicit block decomposition — the constructor a
  /// rebalance uses to restart with a rewritten owner map.
  BlockedDriver(const Mask& mask, const FluidParams& params, Method method,
                const BlockDecomp& bd,
                std::shared_ptr<Transport> transport = nullptr,
                Scheduling sched = Scheduling::kOverlap, int threads = 0);

  /// Runs `n` integration steps on every rank, one thread each.
  void run(int n);

  /// Runs up to `max_steps` steps, stopping early — with every block at
  /// the *same* step — once `request` becomes true.  Appendix B: each rank
  /// thread announces its current step in the shared sync file once after
  /// the request; the agreed stop is the largest announced step + 1,
  /// widened by a margin because ranks notice the request at step
  /// boundaries rather than in a signal handler and may drift further
  /// apart meanwhile.  The margin bounds that drift: the rank grid's
  /// max_unsync(StencilShape::kFull) (appendix A) when every rank owns
  /// just its own subregion (block side 0), else active ranks - 1, which
  /// holds for any owner map because two ranks that exchange blocks
  /// differ by at most one step.  Returns the number of steps executed.
  /// Migration afterwards is save_blocks + restore_blocks on a new driver.
  int run_until_sync(int max_steps, const std::atomic<bool>& request,
                     SyncFile& sync_file);

  const BlockDecomp& blocks() const { return bd_; }
  int active_count() const { return static_cast<int>(sets_.size()); }

  /// The telemetry of `rank` read from the registry: its accumulated
  /// T_calc (every "compute." timer), T_com (every "comm." timer) and
  /// their utilization g (section 8, eq. 8).  `rank` must own at least
  /// one block.
  telemetry::RankMetrics stats(int rank) const;

  /// Common step counter of every block.
  long step() const;

  /// The domain of global block `block` (must be active).
  Domain& block_domain(int block);

  /// Assembles the global interior of a field from the blocks; inactive
  /// blocks contribute the quiescent state.
  Field gather(FieldId id) const;

  /// Call after editing block fields: re-seeds LB equilibria and refreshes
  /// every ghost region (all fields).
  void reinitialize();

  /// Writes one dump per active block into `dir` as the epoch after the
  /// one committed there (epoch_store.hpp; 0 when none is) and commits
  /// it, so a supervised run in `dir` continues from this state.  Block
  /// dumps are owner-agnostic: any later driver whose decomposition cuts
  /// the same block boxes can restore them, whatever its owner map says.
  void save_blocks(const std::string& dir) const;

  /// Restores the epoch committed in `dir` (by save_blocks or a
  /// supervised run) for the same block geometry, method and parameters;
  /// contract_error when none is.
  void restore_blocks(const std::string& dir);

  telemetry::Session& telemetry() { return *telemetry_; }
  const telemetry::Session& telemetry() const { return *telemetry_; }

 private:
  using SendFn = typename BlockSet<Dim>::SendFn;
  using RecvFn = typename BlockSet<Dim>::RecvFn;

  void init(const Mask& mask, int threads);
  /// Refreshes every ghost region (all fields, populations included)
  /// without touching interior state.
  void sync_ghosts();
  /// The drift bound run_until_sync widens the agreed stop step by.
  long unsync_margin() const;
  /// Runs `fn(set, send, recv)` concurrently, one thread per rank, with
  /// `send`/`recv` bound to the transport as that rank; rethrows the first
  /// worker exception.
  template <typename Fn>
  void for_each_set(Fn&& fn);

  BlockDecomp bd_;
  FluidParams params_;
  Method method_;
  int ghost_;
  Scheduling sched_ = Scheduling::kOverlap;
  std::shared_ptr<Transport> transport_;
  std::unique_ptr<telemetry::Session> telemetry_;
  std::vector<std::unique_ptr<BlockSet<Dim>>> sets_;
};

extern template class BlockedDriver<2>;
extern template class BlockedDriver<3>;

}  // namespace subsonic
