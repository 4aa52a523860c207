// Thread-count invariance: the intra-subregion worker pool shards rows of
// every kernel pass across threads, and the partition must be invisible —
// a run with threads = N reproduces the threads = 1 run bit for bit.
// This is the tentpole claim of the worker pool (every pass writes
// disjoint rows and reads only buffers that pass never writes), checked
// end-to-end on the flue-pipe geometry for both methods.
#include <gtest/gtest.h>

#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
#include "src/runtime/blocked_driver.hpp"
#include "src/runtime/serial_driver.hpp"

namespace subsonic {
namespace {

FluidParams pipe_params(Method method, const Geometry2D& g) {
  FluidParams p;
  p.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  p.nu = 0.02;
  p.filter_eps = 0.1;  // keep the filter kernel in the loop
  p.inlet_vx = g.inlet_speed;
  return p;
}

void expect_identical(const PaddedField2D<double>& a,
                      const PaddedField2D<double>& b, const char* what) {
  EXPECT_EQ(max_abs_diff(a, b), 0.0)
      << what << " diverged across thread counts";
}

class ThreadEquivalence : public ::testing::TestWithParam<Method> {};

TEST_P(ThreadEquivalence, SerialFluePipeBitwiseAcrossThreadCounts) {
  const Method method = GetParam();
  const Geometry2D g =
      build_flue_pipe(Extents2{120, 80}, FluePipeVariant::kChannel, 3);
  const FluidParams p = pipe_params(method, g);

  SerialDriver<2> one(g.mask, p, method, /*threads=*/1);
  one.run(30);
  EXPECT_GT(max_abs(one.domain().vx()), 0.01);  // the jet must be flowing

  for (int threads : {2, 4}) {
    SerialDriver<2> many(g.mask, p, method, threads);
    ASSERT_EQ(many.domain().threads(), threads);
    many.run(30);
    expect_identical(one.domain().rho(), many.domain().rho(), "rho");
    expect_identical(one.domain().vx(), many.domain().vx(), "vx");
    expect_identical(one.domain().vy(), many.domain().vy(), "vy");
  }
}

TEST_P(ThreadEquivalence, NestedUnderSubregionParallelism) {
  // The pool nests inside the per-subregion decomposition: every rank of
  // a 3x2 parallel run shards its own rows.  Gathered fields must match
  // the unthreaded parallel run exactly.
  const Method method = GetParam();
  const Geometry2D g =
      build_flue_pipe(Extents2{120, 80}, FluePipeVariant::kChannel, 3);
  const FluidParams p = pipe_params(method, g);

  BlockedDriver<2> one(g.mask, p, method, GridShape{3, 2, 1}, 0, nullptr,
                       Scheduling::kOverlap, /*threads=*/1);
  BlockedDriver<2> many(g.mask, p, method, GridShape{3, 2, 1}, 0, nullptr,
                        Scheduling::kOverlap, /*threads=*/4);
  one.run(25);
  many.run(25);

  for (FieldId id : {FieldId::kRho, FieldId::kVx, FieldId::kVy})
    EXPECT_EQ(max_abs_diff(one.gather(id), many.gather(id)), 0.0)
        << "field " << static_cast<int>(id);
}

INSTANTIATE_TEST_SUITE_P(Methods, ThreadEquivalence,
                         ::testing::Values(Method::kLatticeBoltzmann,
                                           Method::kFiniteDifference),
                         [](const auto& param_info) {
                           return param_info.param == Method::kLatticeBoltzmann
                                      ? "lb"
                                      : "fd";
                         });

TEST(ThreadEquivalence, WallHeavyMaskBitwiseAcrossThreadCounts) {
  // Wall-heavy geometry: the bottom 3/4 of the box is solid, so almost
  // all the fluid rows land in the top quarter.  The spans-weighted
  // partition splits *that* block across threads instead of handing it
  // whole to the last thread — and must still be bitwise invisible.
  const int nx = 96, ny = 64;
  Mask2D mask(Extents2{nx, ny}, 3);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, nx, 3 * ny / 4}, NodeType::kWall);  // solid lower 3/4

  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  p.filter_eps = 0.1;
  p.force_x = 1e-4;  // drive a flow along the open channel on top

  SerialDriver<2> one(mask, p, Method::kLatticeBoltzmann, /*threads=*/1);
  one.run(25);
  EXPECT_GT(max_abs(one.domain().vx()), 1e-6);

  for (int threads : {2, 3, 4}) {
    SerialDriver<2> many(mask, p, Method::kLatticeBoltzmann, threads);
    many.run(25);
    expect_identical(one.domain().rho(), many.domain().rho(), "rho");
    expect_identical(one.domain().vx(), many.domain().vx(), "vx");
    expect_identical(one.domain().vy(), many.domain().vy(), "vy");
  }
}

TEST(ThreadEquivalence3D, SerialRunBitwiseAcrossThreadCounts) {
  // 3D pencils shard over a flattened (y, z) index; same invariance claim.
  Mask3D mask(Extents3{20, 14, 12}, 3);
  mask.fill_box({0, 0, 0, 20, 14, 1}, NodeType::kWall);
  mask.fill_box({0, 0, 11, 20, 14, 12}, NodeType::kWall);
  mask.fill_box({8, 5, 4, 12, 9, 8}, NodeType::kWall);
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  p.filter_eps = 0.15;
  p.periodic_x = p.periodic_y = true;
  p.force_x = 1e-4;  // body force drives a flow through the channel

  SerialDriver<3> one(mask, p, Method::kLatticeBoltzmann, /*threads=*/1);
  SerialDriver<3> many(mask, p, Method::kLatticeBoltzmann, /*threads=*/4);
  one.run(20);
  many.run(20);
  EXPECT_GT(max_abs(one.domain().vx()), 1e-6);

  for (FieldId id : {FieldId::kRho, FieldId::kVx, FieldId::kVz})
    EXPECT_EQ(max_abs_diff(one.domain().field(id), many.domain().field(id)),
              0.0)
        << "field " << static_cast<int>(id);
}

}  // namespace
}  // namespace subsonic
