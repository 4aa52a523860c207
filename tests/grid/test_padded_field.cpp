#include "src/grid/padded_field.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace subsonic {
namespace {

TEST(PaddedField2D, InteriorAndGhostAccess) {
  PaddedField2D<double> f(Extents2{4, 3}, 2);
  EXPECT_EQ(f.nx(), 4);
  EXPECT_EQ(f.ny(), 3);
  EXPECT_EQ(f.ghost(), 2);
  f(0, 0) = 1.5;
  f(-2, -2) = 2.5;   // ghost corner
  f(5, 4) = 3.5;     // opposite ghost corner
  EXPECT_DOUBLE_EQ(f(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(f(-2, -2), 2.5);
  EXPECT_DOUBLE_EQ(f(5, 4), 3.5);
}

TEST(PaddedField2D, ValueInitializedToZero) {
  PaddedField2D<double> f(Extents2{3, 3}, 1);
  for (int y = -1; y <= 3; ++y)
    for (int x = -1; x <= 3; ++x) EXPECT_DOUBLE_EQ(f(x, y), 0.0);
}

TEST(PaddedField2D, AtThrowsOutsidePadding) {
  PaddedField2D<double> f(Extents2{4, 4}, 1);
  EXPECT_NO_THROW(f.at(-1, -1));
  EXPECT_NO_THROW(f.at(4, 4));
  EXPECT_THROW(f.at(5, 0), contract_error);
  EXPECT_THROW(f.at(0, -2), contract_error);
}

TEST(PaddedField2D, DistinctCellsDoNotAlias) {
  PaddedField2D<int> f(Extents2{5, 5}, 2);
  int v = 0;
  for (int y = -2; y < 7; ++y)
    for (int x = -2; x < 7; ++x) f(x, y) = v++;
  v = 0;
  for (int y = -2; y < 7; ++y)
    for (int x = -2; x < 7; ++x) EXPECT_EQ(f(x, y), v++);
}

TEST(PaddedField2D, ExtraPitchDoesNotChangeLogicalLayout) {
  PaddedField2D<double> a(Extents2{8, 4}, 1);
  PaddedField2D<double> b(Extents2{8, 4}, 1, /*extra_pitch=*/37);
  for (int y = -1; y <= 4; ++y)
    for (int x = -1; x <= 8; ++x) {
      a(x, y) = 10.0 * x + y;
      b(x, y) = 10.0 * x + y;
    }
  EXPECT_TRUE(a == b);
  EXPECT_GT(b.stored_count(), a.stored_count());
}

TEST(PaddedField2D, FillSetsEverything) {
  PaddedField2D<float> f(Extents2{3, 2}, 1);
  f.fill(2.0f);
  for (int y = -1; y <= 2; ++y)
    for (int x = -1; x <= 3; ++x) EXPECT_FLOAT_EQ(f(x, y), 2.0f);
}

TEST(PaddedField2D, ZeroGhostIsAllowed) {
  PaddedField2D<double> f(Extents2{2, 2}, 0);
  f(1, 1) = 9.0;
  EXPECT_DOUBLE_EQ(f(1, 1), 9.0);
  EXPECT_FALSE(f.valid(-1, 0));
}

TEST(PaddedField3D, InteriorAndGhostAccess) {
  PaddedField3D<double> f(Extents3{3, 4, 5}, 1);
  f(0, 0, 0) = 1.0;
  f(-1, -1, -1) = 2.0;
  f(3, 4, 5) = 3.0;
  EXPECT_DOUBLE_EQ(f(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(f(-1, -1, -1), 2.0);
  EXPECT_DOUBLE_EQ(f(3, 4, 5), 3.0);
}

TEST(PaddedField3D, DistinctCellsDoNotAlias) {
  PaddedField3D<int> f(Extents3{3, 3, 3}, 1);
  int v = 0;
  for (int z = -1; z < 4; ++z)
    for (int y = -1; y < 4; ++y)
      for (int x = -1; x < 4; ++x) f(x, y, z) = v++;
  v = 0;
  for (int z = -1; z < 4; ++z)
    for (int y = -1; y < 4; ++y)
      for (int x = -1; x < 4; ++x) EXPECT_EQ(f(x, y, z), v++);
}

TEST(PaddedField3D, AtThrowsOutsidePadding) {
  PaddedField3D<double> f(Extents3{2, 2, 2}, 1);
  EXPECT_NO_THROW(f.at(2, 2, 2));
  EXPECT_THROW(f.at(3, 0, 0), contract_error);
}

TEST(PaddedField2D, StorageIsCacheLineAligned) {
  PaddedField2D<double> f(Extents2{5, 3}, 2);
  const auto addr = reinterpret_cast<std::uintptr_t>(f.raw().data());
  EXPECT_EQ(addr % kCacheLineBytes, 0u);
}

TEST(PaddedField2D, PitchIsRoundedToWholeCacheLines) {
  // 5 + 2*2 = 9 doubles = 72 bytes -> rounds up to 128 bytes = 16 doubles.
  PaddedField2D<double> f(Extents2{5, 3}, 2);
  EXPECT_EQ(f.pitch(), 16);
  EXPECT_EQ(f.pitch() * static_cast<int>(sizeof(double)) % kCacheLineBytes,
            0);
  // Already a whole number of lines: stays put.
  PaddedField2D<double> g(Extents2{12, 3}, 2);  // 16 doubles = 2 lines
  EXPECT_EQ(g.pitch(), 16);
}

TEST(PaddedField2D, ExtraPitchIsPreservedThroughRounding) {
  // The Appendix-E experiments ask for N extra elements and must get at
  // least N after the cache-line quantization.
  PaddedField2D<double> base(Extents2{8, 2}, 1);
  PaddedField2D<double> padded(Extents2{8, 2}, 1, /*extra_pitch=*/5);
  EXPECT_GE(padded.pitch(), base.pitch() + 5);
}

TEST(PaddedField2D, RowPtrMatchesOperatorParen) {
  PaddedField2D<double> f(Extents2{4, 3}, 2);
  for (int y = -2; y < 5; ++y)
    for (int x = -2; x < 6; ++x) f(x, y) = 100.0 * y + x;
  for (int y = -2; y < 5; ++y) {
    const double* p = f.pencil(y);
    for (int x = -2; x < 6; ++x) EXPECT_DOUBLE_EQ(p[x], f(x, y));
  }
}

TEST(PaddedField3D, StorageIsCacheLineAlignedAndRowPtrMatches) {
  PaddedField3D<double> f(Extents3{3, 4, 2}, 1);
  const auto addr = reinterpret_cast<std::uintptr_t>(f.raw().data());
  EXPECT_EQ(addr % kCacheLineBytes, 0u);
  for (int z = -1; z < 3; ++z)
    for (int y = -1; y < 5; ++y)
      for (int x = -1; x < 4; ++x) f(x, y, z) = x + 10.0 * y + 100.0 * z;
  for (int z = -1; z < 3; ++z)
    for (int y = -1; y < 5; ++y) {
      const double* p = f.pencil(y, z);
      for (int x = -1; x < 4; ++x) EXPECT_DOUBLE_EQ(p[x], f(x, y, z));
    }
}

TEST(RoundPitch, ByteTypesRoundToFullLines) {
  EXPECT_EQ(round_pitch<std::uint8_t>(1), 64);
  EXPECT_EQ(round_pitch<std::uint8_t>(64), 64);
  EXPECT_EQ(round_pitch<std::uint8_t>(65), 128);
  EXPECT_EQ(round_pitch<double>(1), 8);
  EXPECT_EQ(round_pitch<double>(8), 8);
  EXPECT_EQ(round_pitch<double>(9), 16);
}

TEST(PaddedField2D, RequiresPositiveExtents) {
  EXPECT_THROW(PaddedField2D<double>(Extents2{0, 4}, 1), contract_error);
  EXPECT_THROW(PaddedField2D<double>(Extents2{4, -1}, 1), contract_error);
}

/// Offset of every pencil of `f` from its first, pencil (-g, -g), in the
/// order of the padded window: z outer, then y.
template <typename T, int Dim>
std::vector<std::ptrdiff_t> pencil_offsets(const PaddedField<T, Dim>& f) {
  const int g = f.ghost();
  const int nz = Dim == 3 ? f.interior().sizes()[Dim - 1] : 1;
  const int gz = Dim == 3 ? g : 0;
  std::vector<std::ptrdiff_t> out;
  for (int z = -gz; z < nz + gz; ++z)
    for (int y = -g; y < f.ny() + g; ++y)
      out.push_back(f.pencil(y, z) - f.pencil(-g, -gz));
  return out;
}

/// Offsets 0, step, 2 * step, ... for `n` pencils.
std::vector<std::ptrdiff_t> strided(int n, std::ptrdiff_t step) {
  std::vector<std::ptrdiff_t> out;
  for (int p = 0; p < n; ++p) out.push_back(p * step);
  return out;
}

// The storage layout every dump, span loop and golden CRC reads: pinned to
// the values the separate 2D and 3D field classes produced, for an owning
// field and for a view into a direction-interleaved population slab (the
// Domain's LB layout, q = 9 in 2D and 19 in 3D).
TEST(PaddedFieldLayout, PinnedPitchStrideAndPencilOffsets) {
  const Extents2 e2{10, 7};
  const Extents3 e3{10, 7, 5};
  const int g = 2;

  PaddedField2D<double> own2(e2, g);
  EXPECT_EQ(own2.pitch(), 16);
  EXPECT_EQ(own2.row_stride(), 16);
  EXPECT_EQ(own2.stored_count(), 176u);
  EXPECT_EQ(pencil_offsets(own2),
            (std::vector<std::ptrdiff_t>{0, 16, 32, 48, 64, 80, 96, 112, 128,
                                         144, 160}));
  PaddedField2D<double> wide2(e2, g, /*extra_pitch=*/5);
  EXPECT_EQ(wide2.pitch(), 24);
  EXPECT_EQ(wide2.stored_count(), 264u);

  PaddedField2D<std::uint8_t> bytes2(e2, g);
  EXPECT_EQ(bytes2.pitch(), 64);
  EXPECT_EQ(bytes2.stored_count(), 704u);
  EXPECT_EQ(pencil_offsets(bytes2), strided(11, 64));

  PaddedField3D<double> own3(e3, g);
  EXPECT_EQ(own3.pitch(), 16);
  EXPECT_EQ(own3.row_stride(), 16);
  EXPECT_EQ(own3.stored_count(), 1584u);
  EXPECT_EQ(pencil_offsets(own3), strided(99, 16));
  EXPECT_EQ(own3.pencil(8, 6) - own3.pencil(-2, -2), 1568);
  EXPECT_EQ(own3.pencil(-2, -1) - own3.pencil(-2, -2), 176);

  std::vector<double> slab2(9 * 16 * 11);
  PaddedField2D<double> view2(slab2.data() + 3 * 16, e2, g, 16, 9 * 16);
  EXPECT_EQ(view2.pitch(), 16);
  EXPECT_EQ(view2.row_stride(), 144);
  EXPECT_EQ(view2.stored_count(), 176u);
  EXPECT_EQ(view2.pencil(-2) - slab2.data(), 48 + 2);
  EXPECT_EQ(pencil_offsets(view2), strided(11, 144));

  std::vector<double> slab3(19 * 16 * 99);
  PaddedField3D<double> view3(slab3.data() + 18 * 16, e3, g, 16, 19 * 16);
  EXPECT_EQ(view3.pitch(), 16);
  EXPECT_EQ(view3.row_stride(), 304);
  EXPECT_EQ(view3.stored_count(), 1584u);
  EXPECT_EQ(view3.pencil(-2, -2) - slab3.data(), 288 + 2);
  EXPECT_EQ(pencil_offsets(view3), strided(99, 304));
  EXPECT_EQ(view3.pencil(8, 6) - view3.pencil(-2, -2), 98 * 304);
}

}  // namespace
}  // namespace subsonic
