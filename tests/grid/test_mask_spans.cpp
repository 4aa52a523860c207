#include "src/grid/mask_spans.hpp"

#include <gtest/gtest.h>

#include "src/geometry/grid_types.hpp"

#include <vector>

namespace subsonic {
namespace {

TEST(MaskSpans2D, FindsRunsPerRow) {
  // Row 0: x in {1,2,3, 6,7}; row 1: empty; row 2: the whole row.
  const auto pred = [](int x, int y, int) {
    if (y == 0) return (x >= 1 && x < 4) || (x >= 6 && x < 8);
    if (y == 2) return true;
    return false;
  };
  MaskSpans2D spans(Box2{0, 0, 8, 3}, pred);

  ASSERT_EQ(spans.pencil(0).size(), 2u);
  EXPECT_EQ(spans.pencil(0)[0], (MaskSpan{1, 4}));
  EXPECT_EQ(spans.pencil(0)[1], (MaskSpan{6, 8}));
  EXPECT_TRUE(spans.pencil(1).empty());
  ASSERT_EQ(spans.pencil(2).size(), 1u);
  EXPECT_EQ(spans.pencil(2)[0], (MaskSpan{0, 8}));
  EXPECT_EQ(spans.total(), 5 + 0 + 8);
}

TEST(MaskSpans2D, NegativeWindowAndOutOfRangeRows) {
  // Windows start below zero (padded coordinates); rows outside the
  // window must come back empty rather than faulting.
  MaskSpans2D spans(Box2{-2, -1, 3, 2}, [](int x, int, int) { return x < 0; });
  ASSERT_EQ(spans.pencil(-1).size(), 1u);
  EXPECT_EQ(spans.pencil(-1)[0], (MaskSpan{-2, 0}));
  EXPECT_TRUE(spans.pencil(-2).empty());
  EXPECT_TRUE(spans.pencil(2).empty());
  EXPECT_EQ(spans.window(), (Box2{-2, -1, 3, 2}));
}

TEST(MaskSpans2D, ForRowClipsToSubBox) {
  MaskSpans2D spans(Box2{0, 0, 10, 1},
                    [](int x, int, int) { return x < 3 || x >= 7; });
  std::vector<MaskSpan> seen;
  for_spans(spans, 0, 0, 2, 8, [&](int a, int b) { seen.push_back({a, b}); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (MaskSpan{2, 3}));
  EXPECT_EQ(seen[1], (MaskSpan{7, 8}));

  // A clip window that misses every span produces no calls.
  seen.clear();
  for_spans(spans, 0, 0, 3, 7, [&](int a, int b) { seen.push_back({a, b}); });
  EXPECT_TRUE(seen.empty());
}

TEST(MaskSpans2D, DefaultConstructedIsEmpty) {
  MaskSpans2D spans;
  EXPECT_TRUE(spans.pencil(0).empty());
  EXPECT_EQ(spans.total(), 0);
}

TEST(MaskSpans3D, RowsArePencilsAlongX) {
  // Matching cells: the single pencil (y=1, z=2) plus x==0 everywhere.
  const auto pred = [](int x, int y, int z) {
    return x == 0 || (y == 1 && z == 2);
  };
  MaskSpans3D spans(Box3{0, 0, 0, 4, 2, 3}, pred);

  ASSERT_EQ(spans.pencil(1, 2).size(), 1u);
  EXPECT_EQ(spans.pencil(1, 2)[0], (MaskSpan{0, 4}));
  ASSERT_EQ(spans.pencil(0, 0).size(), 1u);
  EXPECT_EQ(spans.pencil(0, 0)[0], (MaskSpan{0, 1}));
  EXPECT_TRUE(spans.pencil(2, 0).empty());   // y out of window
  EXPECT_TRUE(spans.pencil(0, 3).empty());   // z out of window
  EXPECT_EQ(spans.total(), 2 * 3 + 3);    // x==0 pencils + the rest of one
}

TEST(MaskSpans3D, ForRowClips) {
  MaskSpans3D spans(Box3{-1, 0, 0, 5, 1, 1},
                    [](int, int, int) { return true; });
  std::vector<MaskSpan> seen;
  for_spans(spans, 0, 0, 1, 4, [&](int a, int b) { seen.push_back({a, b}); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], (MaskSpan{1, 4}));
}

TEST(MaskSpans, AgreesWithPerCellPredicate) {
  // Exhaustive cross-check on an arbitrary pattern: iterating the spans
  // must visit exactly the predicate's support, once each.
  const auto pred = [](int x, int y, int) {
    return ((x * 7 + y * 13) % 5) < 2;  // deterministic speckle
  };
  const int x_lo = -3, x_hi = 9, y_lo = -2, y_hi = 6;
  MaskSpans2D spans(Box2{x_lo, y_lo, x_hi, y_hi}, pred);
  for (int y = y_lo; y < y_hi; ++y) {
    std::vector<int> from_spans;
    for (const MaskSpan& s : spans.pencil(y))
      for (int x = s.x0; x < s.x1; ++x) from_spans.push_back(x);
    std::vector<int> from_pred;
    for (int x = x_lo; x < x_hi; ++x)
      if (pred(x, y, 0)) from_pred.push_back(x);
    EXPECT_EQ(from_spans, from_pred) << "row " << y;
  }
}

}  // namespace
}  // namespace subsonic
