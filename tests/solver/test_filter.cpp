#include "src/solver/filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/solver/simd.hpp"
#include "src/util/rng.hpp"
#include "tests/support/bitwise.hpp"

namespace subsonic {
namespace {

Domain2D make_domain(const Mask2D& mask, double eps, bool periodic = true) {
  FluidParams p;
  p.filter_eps = eps;
  p.periodic_x = p.periodic_y = periodic;
  return Domain2D(mask, full_box(mask.extents()), p,
                  Method::kFiniteDifference, 3);
}

void wrap_ghosts(Domain2D& d, PaddedField2D<double>& u) {
  const int g = d.ghost();
  for (int y = 0; y < d.ny(); ++y)
    for (int k = 1; k <= g; ++k) {
      u(-k, y) = u(d.nx() - k, y);
      u(d.nx() - 1 + k, y) = u(k - 1, y);
    }
  for (int k = 1; k <= g; ++k)
    for (int x = -g; x < d.nx() + g; ++x) {
      u(x, -k) = u(x, d.ny() - k);
      u(x, d.ny() - 1 + k) = u(x, k - 1);
    }
}

TEST(Filter, ZeroEpsIsANoOp) {
  Mask2D mask(Extents2{16, 16}, 3);
  Domain2D d = make_domain(mask, 0.0);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) d.vx()(x, y) = std::sin(0.7 * x * y);
  PaddedField2D<double> before = d.vx();
  apply_filter(d);
  EXPECT_DOUBLE_EQ(max_abs_diff(before, d.vx()), 0.0);
}

TEST(Filter, ConstantFieldIsUnchanged) {
  Mask2D mask(Extents2{12, 12}, 3);
  Domain2D d = make_domain(mask, 0.5);
  d.vx().fill(3.25);
  apply_filter(d);
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 12; ++x) EXPECT_DOUBLE_EQ(d.vx()(x, y), 3.25);
}

TEST(Filter, QuadraticFieldIsUnchanged) {
  // The 5-point fourth difference annihilates polynomials up to cubic.
  Mask2D mask(Extents2{16, 16}, 3);
  Domain2D d = make_domain(mask, 0.5, /*periodic=*/false);
  // Disable periodic wrap so the polynomial extends into the padding.
  const int g = d.ghost();
  for (int y = -g; y < 16 + g; ++y)
    for (int x = -g; x < 16 + g; ++x)
      d.vx()(x, y) = 2.0 + 0.5 * x - 0.25 * y + 0.125 * x * x - 0.3 * x * y;
  // Make every stencil node fluid: use a mask whose padding is fluid too.
  // (The default padding is wall, which would just skip the filter; we
  // instead verify on the interior sub-block whose stencils stay inside.)
  apply_filter(d);
  for (int y = 2; y < 14; ++y)
    for (int x = 2; x < 14; ++x)
      EXPECT_NEAR(d.vx()(x, y),
                  2.0 + 0.5 * x - 0.25 * y + 0.125 * x * x - 0.3 * x * y,
                  1e-12);
}

TEST(Filter, DampsTheNyquistMode) {
  // The alternating (-1)^x mode is the grid-scale noise the filter exists
  // to kill (paper section 6).  One application with eps scales it by
  // (1 - eps); eps = 1 removes it entirely.
  Mask2D mask(Extents2{16, 16}, 3);
  Domain2D d = make_domain(mask, 1.0);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) d.vx()(x, y) = (x % 2 == 0) ? 1 : -1;
  wrap_ghosts(d, d.vx());
  apply_filter(d);
  for (int y = 4; y < 12; ++y)
    for (int x = 4; x < 12; ++x) EXPECT_NEAR(d.vx()(x, y), 0.0, 1e-12);
}

TEST(Filter, PartialEpsDampsProportionally) {
  Mask2D mask(Extents2{16, 16}, 3);
  Domain2D d = make_domain(mask, 0.25);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) d.vx()(x, y) = (x % 2 == 0) ? 1 : -1;
  wrap_ghosts(d, d.vx());
  apply_filter(d);
  for (int y = 4; y < 12; ++y)
    for (int x = 4; x < 12; ++x) {
      const double expected = 0.75 * ((x % 2 == 0) ? 1 : -1);
      EXPECT_NEAR(d.vx()(x, y), expected, 1e-12);
    }
}

TEST(Filter, SkipsDirectionsBlockedByWalls) {
  Mask2D mask(Extents2{16, 16}, 3);
  mask.fill_box({0, 7, 16, 8}, NodeType::kWall);  // horizontal wall row
  Domain2D d = make_domain(mask, 1.0, /*periodic=*/false);
  // Nyquist in y only; nodes near the wall cannot filter in y.
  const int g = d.ghost();
  for (int y = -g; y < 16 + g; ++y)
    for (int x = -g; x < 16 + g; ++x) d.vx()(x, y) = (y % 2 == 0) ? 1 : -1;
  apply_filter(d);
  // Nodes whose y-stencil crosses the wall are skipped and keep their
  // alternating values; far from the wall the mode is erased.
  EXPECT_DOUBLE_EQ(d.vx()(8, 9), -1.0);  // stencil crosses wall: unchanged
  EXPECT_DOUBLE_EQ(d.vx()(8, 8), 1.0);   // adjacent to wall: unchanged
  EXPECT_NEAR(d.vx()(8, 12), 0.0, 1e-12);
}

TEST(Filter, DoesNotTouchWallValues) {
  Mask2D mask(Extents2{12, 12}, 3);
  mask.fill_box({5, 5, 7, 7}, NodeType::kWall);
  Domain2D d = make_domain(mask, 1.0, false);
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 12; ++x) d.vx()(x, y) = ((x + y) % 2 == 0) ? 1 : -1;
  const double w55 = d.vx()(5, 5);
  apply_filter(d);
  EXPECT_DOUBLE_EQ(d.vx()(5, 5), w55);
}

TEST(Filter, ConservesPeriodicMean) {
  // On a fully periodic fluid domain the fourth difference telescopes, so
  // the filter conserves the total of the field.
  const int n = 16;
  Mask2D mask(Extents2{n, n}, 3);
  Domain2D d = make_domain(mask, 0.8);
  unsigned s = 12345;
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      s = s * 1664525u + 1013904223u;
      d.rho()(x, y) = 1.0 + 1e-3 * double(s >> 20);
    }
  wrap_ghosts(d, d.rho());
  const double sum0 = interior_sum(d.rho());
  apply_filter(d);
  EXPECT_NEAR(interior_sum(d.rho()) / sum0, 1.0, 1e-12);
}

TEST(Filter, RingRowsAbuttingGhostFrameAreCorrected) {
  // The filter region is the interior plus a one-node ring: rows y = -1
  // and y = ny carry filter spans, while rows deeper in the ghost frame
  // (y <= -2, y >= ny + 1) take the block-copy path and must come through
  // the double-buffer swap bit for bit.
  const int n = 16;
  Mask2D mask(Extents2{n, n}, 3);
  Domain2D d = make_domain(mask, 1.0);
  const int g = d.ghost();
  for (int y = -g; y < n + g; ++y)
    for (int x = -g; x < n + g; ++x)
      d.vx()(x, y) = (((x % 2) + 2) % 2 == 0) ? 1.0 : -1.0;  // (-1)^x
  PaddedField2D<double> before = d.vx();
  apply_filter(d);
  // Ring rows: eps = 1 erases the x-Nyquist mode wherever the stencil has
  // wrapped data, which is all of [-1, n].
  for (int x = -1; x <= n; ++x) {
    EXPECT_NEAR(d.vx()(x, -1), 0.0, 1e-12) << "x=" << x;
    EXPECT_NEAR(d.vx()(x, n), 0.0, 1e-12) << "x=" << x;
  }
  // Deep ghost rows: copy path, bitwise unchanged.
  for (int y : {-g, -2, n + 1, n + g - 1})
    for (int x = -g; x < n + g; ++x)
      EXPECT_EQ(d.vx()(x, y), before(x, y)) << "x=" << x << " y=" << y;
}

TEST(Filter, FullWidthSpanRowLeavesOnlyOuterGhostsToCopy) {
  // On an all-fluid periodic domain a ring row's span covers the whole
  // filterable extent [-1, nx]; the copy runs shrink to the outer ghost
  // columns, which must stay bitwise intact.
  const int n = 12;
  Mask2D mask(Extents2{n, n}, 3);
  Domain2D d = make_domain(mask, 1.0);
  const int g = d.ghost();
  for (int y = -g; y < n + g; ++y)
    for (int x = -g; x < n + g; ++x)
      d.vx()(x, y) = (((x % 2) + 2) % 2 == 0) ? 1.0 : -1.0;
  PaddedField2D<double> before = d.vx();
  apply_filter(d);
  const int mid = n / 2;
  for (int x = -1; x <= n; ++x)
    EXPECT_NEAR(d.vx()(x, mid), 0.0, 1e-12) << "x=" << x;
  for (int x : {-g, -2, n + 1, n + g - 1})
    EXPECT_EQ(d.vx()(x, mid), before(x, mid)) << "x=" << x;
}

TEST(Filter, SpanStitchingMatchesPerCellReference) {
  // A wall block splits rows into several spans with copy runs between
  // them.  Rebuild the expected output cell by cell from filter_dirs and
  // the same stencil arithmetic: corrected inside spans, untouched input
  // everywhere else — any stitching bug (off-by-one cursor, missed gap)
  // shows up as a bitwise mismatch.
  const int nx = 16, ny = 12;
  const double eps = 0.6;
  Mask2D mask(Extents2{nx, ny}, 3);
  mask.fill_box({6, 5, 9, 7}, NodeType::kWall);
  Domain2D d = make_domain(mask, eps, /*periodic=*/false);
  const int g = d.ghost();
  unsigned s = 99;
  for (int y = -g; y < ny + g; ++y)
    for (int x = -g; x < nx + g; ++x) {
      s = s * 1664525u + 1013904223u;
      d.rho()(x, y) = 1.0 + 1e-3 * double(s >> 20);
    }
  PaddedField2D<double> in = d.rho();
  apply_filter(d);
  const double k = eps / 16.0;
  for (int y = -g; y < ny + g; ++y)
    for (int x = -g; x < nx + g; ++x) {
      double expected = in(x, y);
      if (y >= -1 && y <= ny && x >= -1 && x <= nx) {
        const std::uint8_t dirs = d.filter_dirs(x, y);
        if (dirs != 0) {
          double corr = 0.0;
          if (dirs & 1)
            corr += in(x - 2, y) - 4.0 * in(x - 1, y) + 6.0 * in(x, y) -
                    4.0 * in(x + 1, y) + in(x + 2, y);
          if (dirs & 2)
            corr += in(x, y - 2) - 4.0 * in(x, y - 1) + 6.0 * in(x, y) -
                    4.0 * in(x, y + 1) + in(x, y + 2);
          expected = in(x, y) - k * corr;
        }
      }
      EXPECT_EQ(d.rho()(x, y), expected) << "x=" << x << " y=" << y;
    }
}

// The AVX2 filter kernel adds every direction's term under a blend where
// the scalar loop branches, and reads every stencil row whatever the
// cell's bits say.  Both kernels must give the same bits for every input
// and every filter-direction value, but for a NaN's sign: which operand
// of a commutative add propagates is the compiler's choice, and a build
// for x86-64-v3 compiles the scalar loop with other choices.  The domain
// is a sub-box of a mask with scattered walls, so the ghost frame the
// kernel reads holds real geometry, and about one padded value in ten is
// a corner case.

TEST(Filter, Avx2KernelMatchesScalarBitwise2D) {
  if (!test::avx2_available()) GTEST_SKIP() << "no AVX2 in this build/CPU";
  Mask2D mask(Extents2{48, 40}, 3);
  Rng walls(21);
  for (int y = 0; y < 40; ++y)
    for (int x = 0; x < 48; ++x)
      if (walls.below(16) == 0) mask.set(x, y, NodeType::kWall);
  FluidParams p;
  p.filter_eps = 0.3;
  const auto filtered = [&](SimdLevel level) {
    auto d = std::make_unique<Domain2D>(mask, Box2{5, 4, 43, 36}, p,
                                        Method::kFiniteDifference, 3);
    Rng values(5);
    const int g = d->ghost();
    for (PaddedField2D<double>* u : {&d->rho(), &d->vx(), &d->vy()})
      for (int y = -g; y < d->ny() + g; ++y)
        for (int x = -g; x < d->nx() + g; ++x)
          (*u)(x, y) = test::value_or_special(values, -2.0, 2.0);
    test::ScopedSimd pin(level);
    apply_filter(*d);
    return d;
  };
  const auto scalar = filtered(SimdLevel::kScalar);
  const auto vec = filtered(SimdLevel::kAvx2);

  // Every direction value occurs, in spans of every length mod 4.
  const Domain2D& d = *scalar;
  std::set<int> dirs;
  std::set<int> remainders;
  for (int y = -1; y <= d.ny(); ++y) {
    for (int x = -1; x <= d.nx(); ++x)
      if (d.node(x, y) == NodeType::kFluid) dirs.insert(d.filter_dirs(x, y));
    for (const MaskSpan& s : d.filter_spans().row(y))
      if (s.x1 - s.x0 >= 4) remainders.insert((s.x1 - s.x0) % 4);
  }
  EXPECT_EQ(dirs, (std::set<int>{0, 1, 2, 3}));
  EXPECT_EQ(remainders, (std::set<int>{0, 1, 2, 3}));

  test::expect_same_bits_any_nan(vec->rho(), scalar->rho(), "rho");
  test::expect_same_bits_any_nan(vec->vx(), scalar->vx(), "vx");
  test::expect_same_bits_any_nan(vec->vy(), scalar->vy(), "vy");
}

TEST(Filter, Avx2KernelMatchesScalarBitwise3D) {
  if (!test::avx2_available()) GTEST_SKIP() << "no AVX2 in this build/CPU";
  Mask3D mask(Extents3{28, 24, 20}, 3);
  Rng walls(22);
  for (int z = 0; z < 20; ++z)
    for (int y = 0; y < 24; ++y)
      for (int x = 0; x < 28; ++x)
        if (walls.below(16) == 0) mask.set(x, y, z, NodeType::kWall);
  FluidParams p;
  p.filter_eps = 0.3;
  const auto filtered = [&](SimdLevel level) {
    auto d = std::make_unique<Domain3D>(mask, Box3{4, 4, 4, 24, 20, 16}, p,
                                        Method::kFiniteDifference, 3);
    Rng values(6);
    const int g = d->ghost();
    for (PaddedField3D<double>* u : {&d->rho(), &d->vx(), &d->vy(), &d->vz()})
      for (int z = -g; z < d->nz() + g; ++z)
        for (int y = -g; y < d->ny() + g; ++y)
          for (int x = -g; x < d->nx() + g; ++x)
            (*u)(x, y, z) = test::value_or_special(values, -2.0, 2.0);
    test::ScopedSimd pin(level);
    apply_filter(*d);
    return d;
  };
  const auto scalar = filtered(SimdLevel::kScalar);
  const auto vec = filtered(SimdLevel::kAvx2);

  const Domain3D& d = *scalar;
  std::set<int> dirs;
  std::set<int> remainders;
  for (int z = -1; z <= d.nz(); ++z)
    for (int y = -1; y <= d.ny(); ++y) {
      for (int x = -1; x <= d.nx(); ++x)
        if (d.node(x, y, z) == NodeType::kFluid)
          dirs.insert(d.filter_dirs(x, y, z));
      for (const MaskSpan& s : d.filter_spans().row(y, z))
        if (s.x1 - s.x0 >= 4) remainders.insert((s.x1 - s.x0) % 4);
    }
  EXPECT_EQ(dirs, (std::set<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(remainders, (std::set<int>{0, 1, 2, 3}));

  test::expect_same_bits_any_nan(vec->rho(), scalar->rho(), "rho");
  test::expect_same_bits_any_nan(vec->vx(), scalar->vx(), "vx");
  test::expect_same_bits_any_nan(vec->vy(), scalar->vy(), "vy");
  test::expect_same_bits_any_nan(vec->vz(), scalar->vz(), "vz");
}

}  // namespace
}  // namespace subsonic
