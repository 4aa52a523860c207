#include <gtest/gtest.h>

#include "src/decomp/decomposition.hpp"
#include "src/geometry/flue_pipe.hpp"

namespace subsonic {
namespace {

TEST(ActiveRanks, AllActiveOnOpenDomain) {
  const Decomposition2D d(Extents2{60, 60}, 3, 3);
  Mask2D mask(Extents2{60, 60}, 1);
  const auto active = active_ranks(d, mask);
  EXPECT_EQ(active.size(), 9u);
}

TEST(ActiveRanks, SolidColumnIsDropped) {
  // The first column of subregions is solid, and so is the node column
  // beside it: those subregions border no fluid.
  const Decomposition2D d(Extents2{60, 60}, 3, 3);
  Mask2D mask(Extents2{60, 60}, 1);
  mask.fill_box({0, 0, 21, 60}, NodeType::kWall);
  const auto active = active_ranks(d, mask);
  EXPECT_EQ(active.size(), 6u);
  for (int r : active) EXPECT_NE(d.coord_x(r), 0);
}

TEST(ActiveRanks, InletCountsAsActive) {
  const Decomposition2D d(Extents2{60, 60}, 3, 3);
  Mask2D mask(Extents2{60, 60}, 1);
  mask.fill_box({0, 0, 21, 60}, NodeType::kWall);
  mask.set(5, 30, NodeType::kInlet);  // one opening in the solid block
  const auto active = active_ranks(d, mask);
  EXPECT_EQ(active.size(), 7u);
}

TEST(ActiveRanks, FluePipeChannelVariantDropsSubregions) {
  // The paper's Figure 2: a (6x4) decomposition where 9 of the 24
  // subregions are entirely walls and only 15 processes are needed.  Our
  // scaled geometry must also drop at least a few subregions.
  const Geometry2D g =
      build_flue_pipe(Extents2{360, 240}, FluePipeVariant::kChannel, 3);
  const Decomposition2D d(Extents2{360, 240}, 6, 4);
  const auto active = active_ranks(d, g.mask);
  EXPECT_LT(active.size(), 24u);
  EXPECT_GE(active.size(), 12u);
}

TEST(ActiveRanks3D, SolidSlabIsDropped) {
  const Decomposition3D d(Extents3{20, 20, 20}, 2, 2, 2);
  Mask3D mask(Extents3{20, 20, 20}, 1);
  mask.fill_box({0, 0, 0, 20, 20, 11}, NodeType::kWall);
  const auto active = active_ranks(d, mask);
  EXPECT_EQ(active.size(), 4u);
  for (int r : active) EXPECT_EQ(d.coord_z(r), 1);
}

TEST(ActiveRanks, SolidSubregionFlushAgainstFluidStaysActive) {
  // Solid exactly up to the subregion edge: the wall nodes of column 19
  // border fluid at x = 20, so their subregions keep a process.
  const Decomposition2D d(Extents2{60, 60}, 3, 3);
  Mask2D mask(Extents2{60, 60}, 1);
  mask.fill_box({0, 0, 20, 60}, NodeType::kWall);
  EXPECT_EQ(active_ranks(d, mask).size(), 9u);
  // A diagonal neighbour counts too: only the corner node (20, 20) of the
  // upper-right region is fluid next to subregion 0.
  mask.fill_box({0, 0, 60, 60}, NodeType::kWall);
  mask.set(20, 20, NodeType::kFluid);
  EXPECT_EQ(active_ranks(d, mask),
            (std::vector<int>{0, 1, 3, d.rank_of(1, 1)}));
}

TEST(ActiveRanks, PeriodicAxisWrapsTheGrownBox) {
  // 30 x 20 with x < 20 solid over 3 x 1: subregion 0 borders fluid only
  // across the x wrap, subregion 1 directly.
  const Decomposition2D d(Extents2{30, 20}, 3, 1);
  Mask2D mask(Extents2{30, 20}, 1);
  mask.fill_box({0, 0, 20, 20}, NodeType::kWall);
  EXPECT_EQ(active_ranks(d, mask), (std::vector<int>{1, 2}));
  EXPECT_EQ(active_ranks(d, mask, Periodicity{true, false, false}),
            (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(active_ranks(d, mask, Periodicity{false, true, false}),
            (std::vector<int>{1, 2}));
}

TEST(ActiveRanks3D, SolidSlabFlushAgainstFluidStaysActive) {
  const Decomposition3D d(Extents3{20, 20, 20}, 2, 2, 2);
  Mask3D mask(Extents3{20, 20, 20}, 1);
  mask.fill_box({0, 0, 0, 20, 20, 10}, NodeType::kWall);
  EXPECT_EQ(active_ranks(d, mask).size(), 8u);
  // Across a periodic z wrap as well: solid up to z = 15 leaves the lower
  // subregions bordering fluid only through z = 19.
  mask.fill_box({0, 0, 0, 20, 20, 15}, NodeType::kWall);
  EXPECT_EQ(active_ranks(d, mask).size(), 4u);
  EXPECT_EQ(active_ranks(d, mask, Periodicity{false, false, true}).size(), 8u);
}

}  // namespace
}  // namespace subsonic
