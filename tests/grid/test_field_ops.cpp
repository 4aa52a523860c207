#include "src/grid/field_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace subsonic {
namespace {

TEST(FieldOps, MaxAbsDiffIgnoresGhosts) {
  PaddedField2D<double> a(Extents2{3, 3}, 1);
  PaddedField2D<double> b(Extents2{3, 3}, 1);
  a(1, 1) = 2.0;
  b(1, 1) = 2.5;
  a(-1, -1) = 100.0;  // ghost difference must not count
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
}

TEST(FieldOps, MaxAbsDiff3D) {
  PaddedField3D<double> a(Extents3{2, 2, 2}, 1);
  PaddedField3D<double> b(Extents3{2, 2, 2}, 1);
  b(1, 0, 1) = -3.0;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 3.0);
}

TEST(FieldOps, MaxAbs) {
  PaddedField2D<double> a(Extents2{3, 3}, 1);
  a(2, 2) = -7.0;
  a(0, 0) = 4.0;
  EXPECT_DOUBLE_EQ(max_abs(a), 7.0);
}

TEST(FieldOps, MaxAbsPropagatesNaN) {
  // A blow-up check `isfinite(max_abs(v))` must fail on a field with a
  // single NaN anywhere in the sweep order, and on an all-NaN field.
  const double nan = std::nan("");
  PaddedField2D<double> a(Extents2{3, 3}, 1);
  a(2, 2) = 0.5;
  a(0, 0) = nan;  // first cell visited
  EXPECT_TRUE(std::isnan(max_abs(a)));
  a(0, 0) = 0.0;
  a(2, 2) = nan;  // last cell visited
  EXPECT_TRUE(std::isnan(max_abs(a)));
  a.fill(nan);
  EXPECT_TRUE(std::isnan(max_abs(a)));

  PaddedField3D<double> c(Extents3{2, 2, 2}, 1);
  c(1, 0, 1) = nan;
  EXPECT_TRUE(std::isnan(max_abs(c)));
}

TEST(FieldOps, MaxAbsDiffPropagatesNaNFromEitherSide) {
  // A NaN on one side of a bitwise comparison is a mismatch, never 0.
  const double nan = std::nan("");
  PaddedField2D<double> a(Extents2{3, 3}, 1);
  PaddedField2D<double> b(Extents2{3, 3}, 1);
  a(1, 1) = nan;
  EXPECT_TRUE(std::isnan(max_abs_diff(a, b)));
  EXPECT_TRUE(std::isnan(max_abs_diff(b, a)));
  b(2, 0) = 3.0;  // a finite difference elsewhere must not mask it
  EXPECT_TRUE(std::isnan(max_abs_diff(a, b)));
  b.fill(nan);  // NaN on both sides is still no match
  EXPECT_TRUE(std::isnan(max_abs_diff(a, b)));

  PaddedField3D<double> c(Extents3{2, 2, 2}, 1);
  PaddedField3D<double> e(Extents3{2, 2, 2}, 1);
  e(0, 1, 1) = nan;
  EXPECT_TRUE(std::isnan(max_abs_diff(c, e)));
}

TEST(FieldOps, L2NormOfConstantField) {
  PaddedField2D<double> a(Extents2{10, 10}, 1);
  a.fill(3.0);
  EXPECT_NEAR(l2_norm(a), 3.0, 1e-12);
}

TEST(FieldOps, InteriorSum) {
  PaddedField2D<double> a(Extents2{4, 4}, 2);
  a.fill(1.0);  // ghosts too
  // Interior is 16 nodes; ghosts must not contribute.
  EXPECT_DOUBLE_EQ(interior_sum(a), 16.0);
}

TEST(FieldOps, InteriorSum3D) {
  PaddedField3D<double> a(Extents3{2, 3, 4}, 1);
  a.fill(0.5);
  EXPECT_DOUBLE_EQ(interior_sum(a), 0.5 * 24);
}

TEST(FieldOps, MismatchedExtentsThrow) {
  PaddedField2D<double> a(Extents2{3, 3}, 1);
  PaddedField2D<double> b(Extents2{4, 3}, 1);
  EXPECT_THROW(max_abs_diff(a, b), contract_error);
}

}  // namespace
}  // namespace subsonic
