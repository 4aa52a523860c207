// Over-decomposition: the fine block grid, the block->rank owner map, the
// one-block-per-rank grid of side 0, and the env-resolved block side.
#include "src/decomp/block_decomposition.hpp"

#include <cstdlib>

#include <gtest/gtest.h>

#include "src/geometry/mask.hpp"

namespace subsonic {
namespace {

TEST(BlockCountForAxis, TargetsTheSideAndClampsToMinSide) {
  EXPECT_EQ(block_count_for_axis(96, 32, 1), 3);
  EXPECT_EQ(block_count_for_axis(100, 32, 1), 3);  // 100/32 rounds to 3
  EXPECT_EQ(block_count_for_axis(10, 32, 1), 1);   // smaller than one block
  // A 7-node axis cannot hold 7 one-node blocks when ghost = 2: clamp.
  EXPECT_LE(block_count_for_axis(7, 1, 2), 3);
  EXPECT_GE(block_count_for_axis(7, 1, 2), 1);
  // Every block must be at least min_side thick.
  const int n = 33, side = 4, min_side = 3;
  const int count = block_count_for_axis(n, side, min_side);
  EXPECT_GE(n / count, min_side);
}

TEST(BlockSideFromEnv, ReadsOverrideAndFallsBack) {
  ::unsetenv("SUBSONIC_BLOCKS");
  EXPECT_EQ(block_side_from_env(32), 32);
  ::setenv("SUBSONIC_BLOCKS", "16", 1);
  EXPECT_EQ(block_side_from_env(32), 16);
  ::setenv("SUBSONIC_BLOCKS", "bogus", 1);
  EXPECT_THROW(block_side_from_env(32), std::invalid_argument);
  ::unsetenv("SUBSONIC_BLOCKS");
}

TEST(ResolveBlockSide, ZeroIsOnePerRankNegativeReadsTheEnv) {
  ::unsetenv("SUBSONIC_BLOCKS");
  EXPECT_EQ(resolve_block_side(0), 0);
  EXPECT_EQ(resolve_block_side(12), 12);
  EXPECT_EQ(resolve_block_side(-1), kDefaultBlockSide);
  ::setenv("SUBSONIC_BLOCKS", "16", 1);
  EXPECT_EQ(resolve_block_side(-1), 16);
  EXPECT_EQ(resolve_block_side(0), 0);  // the env never overrides side 0
  ::unsetenv("SUBSONIC_BLOCKS");
}

TEST(BlockDecomposition2D, SideZeroIsTheRankGrid) {
  // 3 x 2 ranks over 50 x 31 (uneven splits); rank 0's subregion is solid,
  // and so is the one-node ring around it, so it borders no fluid.
  Mask2D mask(Extents2{50, 31}, 1);
  const Decomposition2D ranks(mask.extents(), 3, 2);
  mask.fill_box(ranks.box(0).grown(1), NodeType::kWall);
  const BlockDecomposition2D bd(mask, GridShape{3, 2}, 0, 1);
  ASSERT_EQ(bd.block_count(), ranks.rank_count());
  EXPECT_EQ(bd.rank_count(), ranks.rank_count());
  for (int b = 0; b < bd.block_count(); ++b) {
    const Box2 got = bd.box(b), want = ranks.box(b);
    EXPECT_EQ(got.x0, want.x0);
    EXPECT_EQ(got.y0, want.y0);
    EXPECT_EQ(got.x1, want.x1);
    EXPECT_EQ(got.y1, want.y1);
    EXPECT_EQ(bd.owner(b), b == 0 ? -1 : b) << "block " << b;
  }
  EXPECT_EQ(bd.active_ranks(), active_ranks(ranks, mask));
}

TEST(BlockDecomposition2D, TilesTheDomainAndSeedsOwnersFromTheRankGrid) {
  Mask2D mask(Extents2{64, 64}, 1);
  BlockDecomposition2D bd(mask, GridShape{2, 2}, 16, 1);
  EXPECT_EQ(bd.block_count(), 16);  // 4 x 4 blocks
  EXPECT_EQ(bd.rank_count(), 4);

  // The blocks tile the interior exactly.
  std::int64_t cells = 0;
  for (int b = 0; b < bd.block_count(); ++b) {
    EXPECT_TRUE(bd.block_active(b));
    cells += bd.block_cells(b);
    // Seeded owner = the rank whose subregion contains the block center.
    const Box2 box = bd.box(b);
    const int cx = (box.x0 + box.x1) / 2, cy = (box.y0 + box.y1) / 2;
    bool found = false;
    for (int r = 0; r < bd.rank_count(); ++r) {
      const Box2 rb = bd.ranks().box(r);
      if (cx >= rb.x0 && cx < rb.x1 && cy >= rb.y0 && cy < rb.y1) {
        EXPECT_EQ(bd.owner(b), r);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(cells, 64 * 64);

  // blocks_of partitions the active blocks across active_ranks.
  std::int64_t assigned = 0;
  for (int r : bd.active_ranks()) assigned += bd.blocks_of(r).size();
  EXPECT_EQ(assigned, bd.block_count());
}

TEST(BlockDecomposition2D, AllSolidBlocksAreInactive) {
  // The left half is solid, one column deeper than its blocks, so no
  // left-half block borders fluid.
  Mask2D mask(Extents2{64, 32}, 1);
  mask.fill_box({0, 0, 33, 32}, NodeType::kWall);
  BlockDecomposition2D bd(mask, GridShape{2, 1}, 16, 1);
  int active = 0;
  for (int b = 0; b < bd.block_count(); ++b) {
    if (bd.block_active(b)) {
      ++active;
      EXPECT_GE(bd.box(b).x0, 32);  // only right-half blocks compute
    } else {
      EXPECT_EQ(bd.owner(b), -1);
      EXPECT_EQ(bd.block_cells(b), 0);
    }
  }
  EXPECT_EQ(active, bd.block_count() / 2);
  // Rank 0's subregion is entirely solid: no active blocks, not active.
  EXPECT_TRUE(bd.blocks_of(0).empty());
  const auto ranks = bd.active_ranks();
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_EQ(ranks[0], 1);
}

TEST(BlockDecomposition2D, OwnerMapRewriteMovesBlocksBetweenRanks) {
  Mask2D mask(Extents2{64, 32}, 1);
  BlockDecomposition2D bd(mask, GridShape{2, 1}, 16, 1);
  std::vector<int> owner = bd.owner_map();
  // Move every block to rank 1.
  for (int& r : owner)
    if (r >= 0) r = 1;
  bd.set_owner_map(owner);
  EXPECT_TRUE(bd.blocks_of(0).empty());
  EXPECT_EQ(static_cast<int>(bd.blocks_of(1).size()), bd.block_count());
  const auto ranks = bd.active_ranks();
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_EQ(ranks[0], 1);
}

TEST(BlockDecomposition2D, RejectsAnInvalidOwnerMap) {
  Mask2D mask(Extents2{32, 32}, 1);
  BlockDecomposition2D bd(mask, GridShape{1, 1}, 16, 1);
  std::vector<int> wrong_size(bd.block_count() + 1, 0);
  EXPECT_ANY_THROW(bd.set_owner_map(wrong_size));
  std::vector<int> out_of_range = bd.owner_map();
  out_of_range[0] = bd.rank_count();  // no such rank
  EXPECT_ANY_THROW(bd.set_owner_map(out_of_range));
  std::vector<int> deactivates = bd.owner_map();
  deactivates[0] = -1;  // an active block may not be dropped
  EXPECT_ANY_THROW(bd.set_owner_map(deactivates));
}

TEST(BlockDecomposition3D, TilesAndSeedsInThreeDimensions) {
  Mask3D mask(Extents3{32, 32, 16}, 1);
  BlockDecomposition3D bd(mask, GridShape{2, 1, 1}, 16, 1);
  EXPECT_EQ(bd.block_count(), 4);  // 2 x 2 x 1
  EXPECT_EQ(bd.rank_count(), 2);
  std::int64_t cells = 0;
  for (int b = 0; b < bd.block_count(); ++b) {
    EXPECT_TRUE(bd.block_active(b));
    cells += bd.block_cells(b);
  }
  EXPECT_EQ(cells, 32 * 32 * 16);
  EXPECT_EQ(bd.blocks_of(0).size(), 2u);
  EXPECT_EQ(bd.blocks_of(1).size(), 2u);
}

TEST(BlockDecomposition3D, SideZeroIsTheRankGrid) {
  // 2 x 3 x 2 ranks over 17 x 20 x 9; rank 7's subregion and the one-node
  // ring around it are solid.
  Mask3D mask(Extents3{17, 20, 9}, 1);
  const Decomposition3D ranks(mask.extents(), 2, 3, 2);
  mask.fill_box(ranks.box(7).grown(1), NodeType::kWall);
  const BlockDecomposition3D bd(mask, GridShape{2, 3, 2}, 0, 1);
  ASSERT_EQ(bd.block_count(), ranks.rank_count());
  for (int b = 0; b < bd.block_count(); ++b) {
    const Box3 got = bd.box(b), want = ranks.box(b);
    EXPECT_EQ(got.x0, want.x0);
    EXPECT_EQ(got.y0, want.y0);
    EXPECT_EQ(got.z0, want.z0);
    EXPECT_EQ(got.x1, want.x1);
    EXPECT_EQ(got.y1, want.y1);
    EXPECT_EQ(got.z1, want.z1);
    EXPECT_EQ(bd.owner(b), b == 7 ? -1 : b) << "block " << b;
  }
  EXPECT_EQ(bd.active_ranks(), active_ranks(ranks, mask));
}

TEST(BlockDecomposition2D, SolidBlocksBesideFluidStayActive) {
  // The left half is solid up to the block edge at x = 32: the blocks at
  // x0 = 16 border fluid and keep an owner, the ones at x0 = 0 do not.
  Mask2D mask(Extents2{64, 32}, 1);
  mask.fill_box({0, 0, 32, 32}, NodeType::kWall);
  const BlockDecomposition2D bd(mask, GridShape{2, 1}, 16, 1);
  for (int b = 0; b < bd.block_count(); ++b)
    EXPECT_EQ(bd.block_active(b), bd.box(b).x0 >= 16) << "block " << b;
  EXPECT_EQ(bd.active_ranks(), (std::vector<int>{0, 1}));
}

TEST(BlockDecomposition2D, PeriodicWrapKeepsTheEdgeBlockActive) {
  // Solid up to x = 24 on a 32-wide grid at side 8: block column 0 borders
  // fluid only across the x wrap, block column 1 borders none.
  Mask2D mask(Extents2{32, 16}, 1);
  mask.fill_box({0, 0, 24, 16}, NodeType::kWall);
  const BlockDecomposition2D closed(mask, GridShape{2, 1}, 8, 1);
  const BlockDecomposition2D wrapped(mask, GridShape{2, 1}, 8, 1,
                                     Periodicity{true, false, false});
  for (int b = 0; b < closed.block_count(); ++b) {
    const int x0 = closed.box(b).x0;
    EXPECT_EQ(closed.block_active(b), x0 >= 16) << "block " << b;
    EXPECT_EQ(wrapped.block_active(b), x0 != 8) << "block " << b;
  }
}

}  // namespace
}  // namespace subsonic
