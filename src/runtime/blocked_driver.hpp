// Threaded driver over an over-decomposed grid: one worker thread per rank
// owning at least one block, each running a BlockSet over the shared
// transport.  This is the in-process twin of ParallelDriver lifted to the
// block runtime — equivalence tests pin blocked runs bitwise to monolithic
// ones, and the save_blocks/restore_blocks pair (per-*block* dump files)
// is what makes a mid-run owner-map rewrite a pure re-assignment: save,
// rebuild the driver with the edited map, restore, continue.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/comm/transport.hpp"
#include "src/runtime/block_set.hpp"
#include "src/runtime/domain_traits.hpp"
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
  /// kDefaultBlockSide as the fallback.  The other parameters mirror
  /// ParallelDriver.
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

  const BlockDecomp& blocks() const { return bd_; }
  int active_count() const { return static_cast<int>(sets_.size()); }

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

  /// Writes one dump per active block into `dir` ("block_<b>.dump"), in
  /// block order.  Block dumps are owner-agnostic: any later driver whose
  /// decomposition cuts the same block boxes can restore them, whatever
  /// its owner map says.
  void save_blocks(const std::string& dir) const;

  /// Restores dumps written by save_blocks for the same block geometry,
  /// method and parameters.
  void restore_blocks(const std::string& dir);

  telemetry::Session& telemetry() { return *telemetry_; }
  const telemetry::Session& telemetry() const { return *telemetry_; }

 private:
  void init(const Mask& mask, int threads);
  /// Refreshes every ghost region (all fields, populations included)
  /// without touching interior state.
  void sync_ghosts();
  /// Runs `fn(set)` concurrently, one thread per rank, rethrowing the
  /// first worker exception.
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
