// The band partition every split kernel pass runs on (pass.hpp): the
// band boxes and the interior box of a region cover each of its nodes
// exactly once, whatever the region's thickness on each axis, and the
// boxes come outermost axis first.
#include "src/solver/pass.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace subsonic {
namespace {

/// Counts, for every node of `region`, how many of the band boxes and the
/// interior box of width `w` hold it, and expects one everywhere.
template <typename Box>
void expect_partition(const Box& region, int w) {
  constexpr int kAxes = kBoxAxes<Box>;
  const auto lo = region.lo(), hi = region.hi();
  std::array<int, 3> n{1, 1, 1};
  for (int a = 0; a < kAxes; ++a) n[a] = hi[a] - lo[a];
  std::vector<int> hits(static_cast<std::size_t>(n[0]) * n[1] * n[2], 0);
  const auto mark = [&](const Box& b) {
    if (b.empty()) return;
    const auto blo = b.lo(), bhi = b.hi();
    std::array<int, 3> from{0, 0, 0}, to{1, 1, 1};
    for (int a = 0; a < kAxes; ++a) {
      ASSERT_GE(blo[a], lo[a]) << b;
      ASSERT_LE(bhi[a], hi[a]) << b;
      from[a] = blo[a] - lo[a];
      to[a] = bhi[a] - lo[a];
    }
    for (int z = from[2]; z < to[2]; ++z)
      for (int y = from[1]; y < to[1]; ++y)
        for (int x = from[0]; x < to[0]; ++x)
          ++hits[(static_cast<std::size_t>(z) * n[1] + y) * n[0] + x];
  };
  const BandBoxes<Box> band = band_boxes(region, w);
  EXPECT_LE(band.count, 2 * kAxes);
  for (const Box& b : band) {
    EXPECT_FALSE(b.empty()) << b;
    mark(b);
  }
  mark(interior_box(region, w));
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], 1) << "node " << i << " of " << region << ", w " << w;
}

TEST(BandBoxes, CoverEach2DNodeOnceAtEveryThickness) {
  for (int w : {1, 3})
    for (int ny = 0; ny <= 2 * w + 1; ++ny)
      for (int nx = 0; nx <= 2 * w + 1; ++nx)
        expect_partition(Box2{-w, 2, nx - w, 2 + ny}, w);
}

TEST(BandBoxes, CoverEach3DNodeOnceAtEveryThickness) {
  for (int w : {1, 3})
    for (int nz = 0; nz <= 2 * w + 1; ++nz)
      for (int ny = 0; ny <= 2 * w + 1; ++ny)
        for (int nx = 0; nx <= 2 * w + 1; ++nx)
          expect_partition(Box3{-w, 2, 5, nx - w, 2 + ny, 5 + nz}, w);
}

TEST(BandBoxes, OutermostAxisSlabsComeFirst) {
  // 2D: bottom rows, top rows, then the left and right columns of the
  // middle rows.
  const BandBoxes<Box2> b2 = band_boxes(Box2{0, 0, 10, 8}, 2);
  ASSERT_EQ(b2.count, 4);
  EXPECT_EQ(b2.boxes[0], (Box2{0, 0, 10, 2}));
  EXPECT_EQ(b2.boxes[1], (Box2{0, 6, 10, 8}));
  EXPECT_EQ(b2.boxes[2], (Box2{0, 2, 2, 6}));
  EXPECT_EQ(b2.boxes[3], (Box2{8, 2, 10, 6}));
  EXPECT_EQ(interior_box(Box2{0, 0, 10, 8}, 2), (Box2{2, 2, 8, 6}));
  // 3D: the two full z slabs, the y slabs of the middle z, then the x
  // slabs of the middle block.
  const BandBoxes<Box3> b3 = band_boxes(Box3{0, 0, 0, 10, 8, 6}, 1);
  ASSERT_EQ(b3.count, 6);
  EXPECT_EQ(b3.boxes[0], (Box3{0, 0, 0, 10, 8, 1}));
  EXPECT_EQ(b3.boxes[1], (Box3{0, 0, 5, 10, 8, 6}));
  EXPECT_EQ(b3.boxes[2], (Box3{0, 0, 1, 10, 1, 5}));
  EXPECT_EQ(b3.boxes[3], (Box3{0, 7, 1, 10, 8, 5}));
  EXPECT_EQ(b3.boxes[4], (Box3{0, 1, 1, 1, 7, 5}));
  EXPECT_EQ(b3.boxes[5], (Box3{9, 1, 1, 10, 7, 5}));
  // Thinner than the band on an axis: no interior.
  EXPECT_TRUE(interior_box(Box3{0, 0, 0, 10, 8, 2}, 1).empty());
}

}  // namespace
}  // namespace subsonic
