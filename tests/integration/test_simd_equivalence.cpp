// The SIMD dispatch level must stay out of the physics: the AVX2 kernels
// are element-wise transcriptions of the scalar collide-stream and filter
// arithmetic (same operation order, no FMA contraction), so a run under
// either level must produce bit-for-bit identical fields across drivers,
// passes, methods and forcing.  These tests pin the level with set_simd
// and compare whole runs; they skip (rather than silently pass
// scalar-vs-scalar) on machines or builds without AVX2.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
#include "src/runtime/blocked_driver.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/solver/simd.hpp"
#include "tests/support/bitwise.hpp"

namespace subsonic {
namespace {

using test::avx2_available;
using test::expect_same_bits;
using test::ScopedSimd;

FluidParams lb_params(bool forced) {
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  p.filter_eps = 0.1;
  if (forced) {
    p.force_x = 2e-5;
    p.force_y = -1e-5;
  }
  return p;
}

TEST(SimdDispatch, OverrideIsHonoredAndClamped) {
  ScopedSimd pin(SimdLevel::kScalar);
  EXPECT_EQ(active_simd(), SimdLevel::kScalar);
  set_simd(SimdLevel::kAvx2);
  if (avx2_available())
    EXPECT_EQ(active_simd(), SimdLevel::kAvx2);
  else
    EXPECT_EQ(active_simd(), SimdLevel::kScalar);  // clamped to the build
}

TEST(SimdDispatch, EnvironmentParsesStrictly) {
  const SimdLevel best =
      avx2_available() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  const char* saved = std::getenv("SUBSONIC_SIMD");
  const std::string restore = saved ? saved : "";
  ::unsetenv("SUBSONIC_SIMD");
  EXPECT_EQ(simd_from_env(), best);
  const std::pair<const char*, SimdLevel> known[] = {
      {"", best}, {"auto", best}, {"scalar", SimdLevel::kScalar},
      {"avx2", best}};
  for (const auto& [text, level] : known) {
    ::setenv("SUBSONIC_SIMD", text, 1);
    EXPECT_EQ(simd_from_env(), level) << '"' << text << '"';
  }
  for (const char* text : {"sclar", "AVX2", " scalar", "avx512", "1"}) {
    ::setenv("SUBSONIC_SIMD", text, 1);
    try {
      simd_from_env();
      ADD_FAILURE() << '"' << text << "\" was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      for (const char* word : {"SUBSONIC_SIMD", "auto", "scalar", "avx2"})
        EXPECT_NE(what.find(word), std::string::npos) << what;
    }
  }
  if (saved)
    ::setenv("SUBSONIC_SIMD", restore.c_str(), 1);
  else
    ::unsetenv("SUBSONIC_SIMD");
}

// Serial 2D, kFull pass (threads == 1 takes the in-place sweep), with and
// without body force — the forced collide path has its own vector code.
TEST(SimdEquivalence, SerialRun2DIsBitwise) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 in this build/CPU";
  const Geometry2D g =
      build_flue_pipe(Extents2{96, 64}, FluePipeVariant::kChannel, 3);
  for (bool forced : {false, true}) {
    FluidParams p = lb_params(forced);
    p.inlet_vx = g.inlet_speed;

    SerialDriver<2> scalar(g.mask, p, Method::kLatticeBoltzmann);
    {
      ScopedSimd pin(SimdLevel::kScalar);
      scalar.run(25);
    }
    SerialDriver<2> vec(g.mask, p, Method::kLatticeBoltzmann);
    {
      ScopedSimd pin(SimdLevel::kAvx2);
      vec.run(25);
    }
    EXPECT_TRUE(vec.domain().rho() == scalar.domain().rho()) << forced;
    EXPECT_TRUE(vec.domain().vx() == scalar.domain().vx()) << forced;
    EXPECT_TRUE(vec.domain().vy() == scalar.domain().vy()) << forced;
    for (int i = 0; i < scalar.domain().q(); ++i)
      EXPECT_TRUE(vec.domain().f(i) == scalar.domain().f(i))
          << "f" << i << " forced=" << forced;
  }
}

// Threaded-parallel 2D driver: the overlap schedule runs the band and
// interior passes (two-slab sweeps) instead of kFull, and the ghost
// exchange consumes kernel output every step.
TEST(SimdEquivalence, ParallelBandInteriorRun2DIsBitwise) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 in this build/CPU";
  const Geometry2D g =
      build_flue_pipe(Extents2{120, 80}, FluePipeVariant::kBasic, 3);
  FluidParams p = lb_params(false);
  p.inlet_vx = g.inlet_speed;

  BlockedDriver<2> scalar(g.mask, p, Method::kLatticeBoltzmann,
                          GridShape{2, 2, 1}, 0);
  {
    ScopedSimd pin(SimdLevel::kScalar);
    scalar.run(20);
  }
  BlockedDriver<2> vec(g.mask, p, Method::kLatticeBoltzmann,
                       GridShape{2, 2, 1}, 0);
  {
    ScopedSimd pin(SimdLevel::kAvx2);
    vec.run(20);
  }
  for (FieldId id : {FieldId::kRho, FieldId::kVx, FieldId::kVy}) {
    const auto a = scalar.gather(id);
    const auto b = vec.gather(id);
    for (int y = 0; y < 80; ++y)
      for (int x = 0; x < 120; ++x)
        ASSERT_EQ(a(x, y), b(x, y))
            << static_cast<int>(id) << " @ " << x << "," << y;
  }
}

// Serial 3D (D3Q15 kernels), forced and unforced.
TEST(SimdEquivalence, SerialRun3DIsBitwise) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 in this build/CPU";
  Mask3D mask(Extents3{24, 16, 12}, 3);
  mask.fill_box({8, 6, 4, 12, 10, 8}, NodeType::kWall);
  for (bool forced : {false, true}) {
    FluidParams p = lb_params(forced);
    p.periodic_x = p.periodic_y = p.periodic_z = true;
    if (forced) p.force_z = 1e-5;

    SerialDriver<3> scalar(mask, p, Method::kLatticeBoltzmann);
    for (int z = 0; z < 12; ++z)
      for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 24; ++x)
          scalar.domain().rho()(x, y, z) =
              1.0 + 0.02 * std::sin(0.4 * x - 0.3 * y + 0.5 * z);
    scalar.reinitialize();
    SerialDriver<3> vec(mask, p, Method::kLatticeBoltzmann);
    for (int z = 0; z < 12; ++z)
      for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 24; ++x)
          vec.domain().rho()(x, y, z) =
              1.0 + 0.02 * std::sin(0.4 * x - 0.3 * y + 0.5 * z);
    vec.reinitialize();

    {
      ScopedSimd pin(SimdLevel::kScalar);
      scalar.run(12);
    }
    {
      ScopedSimd pin(SimdLevel::kAvx2);
      vec.run(12);
    }
    EXPECT_TRUE(vec.domain().rho() == scalar.domain().rho()) << forced;
    EXPECT_TRUE(vec.domain().vx() == scalar.domain().vx()) << forced;
    EXPECT_TRUE(vec.domain().vz() == scalar.domain().vz()) << forced;
    for (int i = 0; i < scalar.domain().q(); ++i)
      EXPECT_TRUE(vec.domain().f(i) == scalar.domain().f(i))
          << "f" << i << " forced=" << forced;
  }
}

FluidParams fd_params() {
  FluidParams p;
  p.dt = 0.3;
  p.nu = 0.05;
  p.filter_eps = 0.1;
  return p;
}

// Serial 2D FD on the flue pipe with the filter on: FD runs no
// collide-stream, so the filter is the only dispatched kernel here.
TEST(SimdEquivalence, SerialFdRun2DWithFilterIsBitwise) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 in this build/CPU";
  const Geometry2D g =
      build_flue_pipe(Extents2{120, 80}, FluePipeVariant::kChannel, 3);
  FluidParams p = fd_params();
  p.inlet_vx = g.inlet_speed;

  SerialDriver<2> scalar(g.mask, p, Method::kFiniteDifference);
  {
    ScopedSimd pin(SimdLevel::kScalar);
    scalar.run(40);
  }
  SerialDriver<2> vec(g.mask, p, Method::kFiniteDifference);
  {
    ScopedSimd pin(SimdLevel::kAvx2);
    vec.run(40);
  }
  expect_same_bits(vec.domain().rho(), scalar.domain().rho(), "rho");
  expect_same_bits(vec.domain().vx(), scalar.domain().vx(), "vx");
  expect_same_bits(vec.domain().vy(), scalar.domain().vy(), "vy");
  // The jet must be flowing, or the comparison proves little.
  EXPECT_GT(max_abs(scalar.domain().vx()), 0.01);
}

// Serial 3D FD with the filter on, around an obstacle that blocks some
// filter directions.
TEST(SimdEquivalence, SerialFdRun3DWithFilterIsBitwise) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 in this build/CPU";
  Mask3D mask(Extents3{24, 16, 12}, 3);
  mask.fill_box({8, 6, 4, 12, 10, 8}, NodeType::kWall);
  FluidParams p = fd_params();
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  p.force_x = 1e-4;

  const auto perturbed = [&] {
    auto drv = std::make_unique<SerialDriver<3>>(mask, p,
                                                 Method::kFiniteDifference);
    for (int z = 0; z < 12; ++z)
      for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 24; ++x)
          drv->domain().rho()(x, y, z) =
              1.0 + 0.02 * std::sin(0.4 * x - 0.3 * y + 0.5 * z);
    drv->reinitialize();
    return drv;
  };
  auto scalar = perturbed();
  auto vec = perturbed();
  {
    ScopedSimd pin(SimdLevel::kScalar);
    scalar->run(15);
  }
  {
    ScopedSimd pin(SimdLevel::kAvx2);
    vec->run(15);
  }
  expect_same_bits(vec->domain().rho(), scalar->domain().rho(), "rho");
  expect_same_bits(vec->domain().vx(), scalar->domain().vx(), "vx");
  expect_same_bits(vec->domain().vy(), scalar->domain().vy(), "vy");
  expect_same_bits(vec->domain().vz(), scalar->domain().vz(), "vz");
}

}  // namespace
}  // namespace subsonic
