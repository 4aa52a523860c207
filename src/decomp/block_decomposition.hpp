// Patch-based over-decomposition (Feichtinger-style block/patch LBM
// parallelization; ROADMAP item 2).  The global grid is cut into many
// small fixed-size blocks — far more blocks than ranks — and a mutable
// block→rank owner map assigns each block to the rank that computes it.
// The fine block grid is itself a Decomposition<Dim>, so every existing
// piece of per-subregion machinery (boxes, neighbour links, active
// filtering, ghost-exchange plans) applies verbatim with "rank" read as
// "block id".  Load balancing then degenerates to rewriting the owner map
// and moving a block's checkpointed state: the design that turns dynamic
// redistribution into cheap block re-assignment.
#pragma once

#include <string>
#include <vector>

#include "src/decomp/decomposition.hpp"
#include "src/geometry/mask.hpp"

namespace subsonic {

/// Default target block side: ~32^2 cells per block in 2D, ~32^3 in 3D —
/// small enough that a rank owns several blocks (re-assignment
/// granularity), large enough that the ghost surface stays a modest
/// fraction of the block volume.
constexpr int kDefaultBlockSide = 32;

/// Resolves the target block side: the SUBSONIC_BLOCKS environment
/// variable when set (a positive integer side length), else `fallback`.
/// Throws std::invalid_argument on a malformed value.
int block_side_from_env(int fallback);

/// Resolves a requested block side, the one rule every runtime entry point
/// shares: 0 stays 0 (one block per rank), a negative request becomes
/// SUBSONIC_BLOCKS or kDefaultBlockSide, a positive one is kept.
int resolve_block_side(int requested);

/// Number of blocks along an axis of `n` nodes for target side `side`,
/// clamped so no block is thinner than `min_side` (the ghost width — a
/// thinner block would need ghost data from non-adjacent blocks).
int block_count_for_axis(int n, int side, int min_side);

/// Block decomposition: a fine block grid over the global extents plus a
/// block->rank owner map seeded from the coarse `grid` rank decomposition
/// (each block starts on the rank whose subregion contains its center).
/// Blocks that need no process under active_ranks' rule (all solid, and
/// bordering no non-wall node) get owner -1 and are never computed or
/// exchanged with, exactly like inactive ranks in the monolithic
/// decomposition.  Side 0 makes the block grid the rank grid itself:
/// block b is rank b's subregion, owned by rank b — the paper's
/// one-process-per-subregion layout.
template <int Dim>
class BlockDecomposition {
 public:
  using Decomp = Decomposition<Dim>;
  using Mask = subsonic::Mask<Dim>;
  using Box = typename GridTypes<Dim>::Box;

  /// `side` is the target block side (0: one block per rank); `min_side`
  /// the smallest legal block side (pass the ghost width); `periodic` the
  /// axes the activity rule wraps.
  BlockDecomposition(const Mask& mask, const GridShape& grid, int side,
                     int min_side, const Periodicity& periodic = {});

  const Decomp& blocks() const { return blocks_; }
  const Decomp& ranks() const { return ranks_; }

  int block_count() const { return blocks_.rank_count(); }
  int rank_count() const { return ranks_.rank_count(); }
  Box box(int block) const { return blocks_.box(block); }

  /// Owning rank of `block`; -1 for an inactive block.
  int owner(int block) const { return owner_[block]; }
  void set_owner(int block, int rank);
  const std::vector<int>& owner_map() const { return owner_; }
  /// Replaces the whole map (a rebalance).  Must keep inactive blocks at
  /// -1 and assign every active block a rank in range.
  void set_owner_map(std::vector<int> owner);

  bool block_active(int block) const { return owner_[block] >= 0; }
  /// active()[b] == block_active(b), in the shape make_link_plans expects.
  const std::vector<bool>& active() const { return active_; }

  /// Ascending block ids owned by `rank`.
  std::vector<int> blocks_of(int rank) const;
  /// Ranks owning at least one active block, ascending.
  std::vector<int> active_ranks() const;

  /// Interior cells of each block (0 for inactive blocks) — the work
  /// proxy the rebalancer weighs blocks by.
  std::int64_t block_cells(int block) const {
    return block_active(block) ? blocks_.box(block).count() : 0;
  }

 private:
  Decomp blocks_;
  Decomp ranks_;
  std::vector<int> owner_;
  std::vector<bool> active_;
};

extern template class BlockDecomposition<2>;
extern template class BlockDecomposition<3>;

using BlockDecomposition2D = BlockDecomposition<2>;
using BlockDecomposition3D = BlockDecomposition<3>;

}  // namespace subsonic
