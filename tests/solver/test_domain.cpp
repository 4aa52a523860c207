#include "src/solver/domain.hpp"

#include <gtest/gtest.h>

#include "src/geometry/flue_pipe.hpp"
#include "src/solver/lattice.hpp"

namespace subsonic {
namespace {

TEST(Domain2D, SubregionWindowCopiesGlobalMask) {
  Mask2D mask(Extents2{20, 20}, 2);
  mask.fill_box({8, 0, 12, 20}, NodeType::kWall);  // vertical wall band
  FluidParams p;
  const Domain2D d(mask, Box2{10, 5, 15, 15}, p, Method::kFiniteDifference,
                   2);
  EXPECT_EQ(d.nx(), 5);
  EXPECT_EQ(d.ny(), 10);
  // Local (0,0) is global (10,5): inside the wall band.
  EXPECT_EQ(d.node(0, 0), NodeType::kWall);
  EXPECT_EQ(d.node(2, 0), NodeType::kFluid);   // global x=12
  EXPECT_EQ(d.node(-2, 0), NodeType::kWall);   // global x=8
  EXPECT_EQ(d.node(-3 + 1, 0), NodeType::kWall);
}

TEST(Domain2D, PeriodicWindowWrapsTypes) {
  Mask2D mask(Extents2{10, 6}, 2);
  mask.fill_box({0, 0, 1, 6}, NodeType::kWall);  // wall column at x=0
  FluidParams p;
  p.periodic_x = true;
  const Domain2D d(mask, Box2{8, 0, 10, 6}, p, Method::kFiniteDifference, 2);
  // Local x=2 is global x=10, which wraps to x=0: the wall column.
  EXPECT_EQ(d.node(2, 0), NodeType::kWall);
  EXPECT_EQ(d.node(3, 0), NodeType::kFluid);  // wraps to x=1
}

TEST(Domain2D, NonPeriodicWindowSeesWallPadding) {
  Mask2D mask(Extents2{10, 6}, 2);
  FluidParams p;
  const Domain2D d(mask, Box2{0, 0, 10, 6}, p, Method::kFiniteDifference, 2);
  EXPECT_EQ(d.node(-1, 0), NodeType::kWall);
  EXPECT_EQ(d.node(10, 5), NodeType::kWall);
}

TEST(Domain2D, InitialStateIsQuiescentAtRho0) {
  Mask2D mask(Extents2{8, 8}, 1);
  FluidParams p;
  p.rho0 = 1.25;
  const Domain2D d(mask, full_box(mask.extents()), p,
                   Method::kFiniteDifference, 1);
  for (int y = -1; y <= 8; ++y)
    for (int x = -1; x <= 8; ++x) {
      EXPECT_DOUBLE_EQ(d.rho()(x, y), 1.25);
      EXPECT_DOUBLE_EQ(d.vx()(x, y), 0.0);
    }
}

TEST(Domain2D, InletNodesStartAtJetVelocity) {
  Mask2D mask(Extents2{8, 8}, 1);
  mask.fill_box({0, 3, 1, 5}, NodeType::kInlet);
  FluidParams p;
  p.inlet_vx = 0.07;
  const Domain2D d(mask, full_box(mask.extents()), p,
                   Method::kFiniteDifference, 1);
  EXPECT_DOUBLE_EQ(d.vx()(0, 3), 0.07);
  EXPECT_DOUBLE_EQ(d.vx()(0, 4), 0.07);
  EXPECT_DOUBLE_EQ(d.vx()(1, 3), 0.0);
}

TEST(Domain2D, FdHasNoPopulations) {
  Mask2D mask(Extents2{4, 4}, 1);
  FluidParams p;
  const Domain2D d(mask, full_box(mask.extents()), p,
                   Method::kFiniteDifference, 1);
  EXPECT_EQ(d.q(), 0);
}

TEST(Domain2D, LbStartsAtEquilibrium) {
  Mask2D mask(Extents2{6, 6}, 1);
  FluidParams p;
  Domain2D d(mask, full_box(mask.extents()), p, Method::kLatticeBoltzmann,
             1);
  EXPECT_EQ(d.q(), lbm2d::kQ);
  for (int i = 0; i < lbm2d::kQ; ++i)
    EXPECT_DOUBLE_EQ(d.f(i)(2, 2), lbm2d::equilibrium(i, 1.0, 0.0, 0.0));
}

TEST(Domain2D, FieldLookup) {
  Mask2D mask(Extents2{4, 4}, 1);
  FluidParams p;
  Domain2D d(mask, full_box(mask.extents()), p, Method::kLatticeBoltzmann,
             1);
  EXPECT_EQ(&d.field(FieldId::kRho), &d.rho());
  EXPECT_EQ(&d.field(FieldId::kVx), &d.vx());
  EXPECT_EQ(&d.field(FieldId::kVy), &d.vy());
  EXPECT_EQ(&d.field(population(4)), &d.f(4));
  EXPECT_THROW(d.field(FieldId::kVz), contract_error);
}

TEST(Domain2D, RejectsBoxOutsideGlobalGrid) {
  Mask2D mask(Extents2{8, 8}, 1);
  FluidParams p;
  EXPECT_THROW(Domain2D(mask, Box2{4, 4, 12, 8}, p,
                        Method::kFiniteDifference, 1),
               contract_error);
}

TEST(Domain2D, RejectsInsufficientMaskGhost) {
  Mask2D mask(Extents2{8, 8}, 1);
  FluidParams p;
  EXPECT_THROW(
      Domain2D(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
               3),
      contract_error);
}

// ---- Domain3D: the same constructor with a z axis ------------------------

TEST(Domain3D, SubregionWindowCopiesGlobalMask) {
  Mask3D mask(Extents3{20, 12, 10}, 2);
  mask.fill_box({0, 0, 4, 20, 12, 6}, NodeType::kWall);  // z wall band
  FluidParams p;
  const Domain3D d(mask, Box3{10, 2, 6, 15, 12, 10}, p,
                   Method::kFiniteDifference, 2);
  EXPECT_EQ(d.nx(), 5);
  EXPECT_EQ(d.ny(), 10);
  EXPECT_EQ(d.nz(), 4);
  // Local z = -1 is global z = 5: inside the wall band; z = 0 is fluid.
  EXPECT_EQ(d.node(0, 0, -1), NodeType::kWall);
  EXPECT_EQ(d.node(0, 0, 0), NodeType::kFluid);
  EXPECT_EQ(d.node(-2, 3, 2), NodeType::kFluid);  // global x = 8
  EXPECT_EQ(d.node(0, 0, 4), NodeType::kWall);    // past the grid: padding
}

TEST(Domain3D, PeriodicWindowWrapsTypesAlongZ) {
  Mask3D mask(Extents3{6, 5, 10}, 2);
  mask.fill_box({0, 0, 0, 6, 5, 1}, NodeType::kWall);  // wall plane z = 0
  FluidParams p;
  p.periodic_z = true;
  const Domain3D d(mask, Box3{0, 0, 8, 6, 5, 10}, p,
                   Method::kFiniteDifference, 2);
  // Local z = 2 is global z = 10, which wraps to z = 0: the wall plane.
  EXPECT_EQ(d.node(1, 1, 2), NodeType::kWall);
  EXPECT_EQ(d.node(1, 1, 3), NodeType::kFluid);  // wraps to z = 1
  // x and y stay closed: their padding is the mask's wall default.
  EXPECT_EQ(d.node(-1, 1, 0), NodeType::kWall);
  EXPECT_EQ(d.node(1, 5, 0), NodeType::kWall);
}

TEST(Domain3D, FilterBitFourIsTheZStencil) {
  Mask3D mask(Extents3{12, 12, 12}, 3);
  mask.fill_box({0, 0, 0, 12, 12, 1}, NodeType::kWall);  // wall plane z = 0
  FluidParams p;
  p.filter_eps = 0.1;
  const Domain3D d(mask, full_box(mask.extents()), p,
                   Method::kFiniteDifference, 3);
  EXPECT_EQ(d.filter_dirs(6, 6, 6), 1 | 2 | 4);
  // Within two nodes of the wall plane the z stencil holds a wall.
  EXPECT_EQ(d.filter_dirs(6, 6, 1), 1 | 2);
  EXPECT_EQ(d.filter_dirs(6, 6, 2), 1 | 2);
  EXPECT_EQ(d.filter_dirs(6, 6, 3), 1 | 2 | 4);
  // Next to the closed x padding only the x stencil drops out.
  EXPECT_EQ(d.filter_dirs(1, 6, 6), 2 | 4);
  EXPECT_EQ(d.filter_dirs(6, 6, 0), 0);  // a wall node filters nothing
  EXPECT_EQ(d.filter_dirs_row(6, 6)[6], d.filter_dirs(6, 6, 6));
}

TEST(Domain3D, InitialStateIsQuiescentAtRho0) {
  Mask3D mask(Extents3{5, 4, 3}, 1);
  FluidParams p;
  p.rho0 = 1.25;
  const Domain3D d(mask, full_box(mask.extents()), p,
                   Method::kFiniteDifference, 1);
  for (int z = -1; z <= 3; ++z)
    for (int y = -1; y <= 4; ++y)
      for (int x = -1; x <= 5; ++x) {
        EXPECT_DOUBLE_EQ(d.rho()(x, y, z), 1.25);
        EXPECT_DOUBLE_EQ(d.vz()(x, y, z), 0.0);
      }
}

TEST(Domain3D, InletNodesStartAtJetVelocity) {
  Mask3D mask(Extents3{6, 6, 6}, 1);
  mask.fill_box({0, 0, 0, 6, 6, 1}, NodeType::kInlet);  // inlet plane z = 0
  FluidParams p;
  p.inlet_vx = 0.01;
  p.inlet_vz = 0.07;
  Domain3D d(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
             1);
  EXPECT_DOUBLE_EQ(d.vz()(2, 3, 0), 0.07);
  EXPECT_DOUBLE_EQ(d.vx()(2, 3, 0), 0.01);
  EXPECT_DOUBLE_EQ(d.vy()(2, 3, 0), 0.0);
  EXPECT_DOUBLE_EQ(d.vz()(2, 3, 1), 0.0);
  // The write buffer holds the same statics.
  EXPECT_DOUBLE_EQ(d.vz_next()(2, 3, 0), 0.07);
  EXPECT_DOUBLE_EQ(d.vz_next()(2, 3, 1), 0.0);
}

TEST(Domain3D, FdHasNoPopulations) {
  Mask3D mask(Extents3{4, 4, 4}, 1);
  FluidParams p;
  const Domain3D d(mask, full_box(mask.extents()), p,
                   Method::kFiniteDifference, 1);
  EXPECT_EQ(d.q(), 0);
  EXPECT_FALSE(d.has_f_next());
}

TEST(Domain3D, LbKeepsTwoSlabsAtOneThread) {
  // 3D has no in-place sweep: even a one-thread domain holds f_next.
  Mask3D mask(Extents3{6, 5, 4}, 1);
  FluidParams p;
  Domain3D d(mask, full_box(mask.extents()), p, Method::kLatticeBoltzmann,
             1, /*threads=*/1);
  EXPECT_EQ(d.q(), lbm3d::kQ);
  EXPECT_TRUE(d.has_f_next());
  for (int i = 0; i < lbm3d::kQ; ++i) {
    const double eq = lbm3d::equilibrium(i, 1.0, 0.0, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(d.f(i)(2, 2, 2), eq);
    EXPECT_DOUBLE_EQ(d.f_next(i)(2, 2, 2), eq);
  }
}

TEST(Domain3D, FieldLookup) {
  Mask3D mask(Extents3{4, 4, 4}, 1);
  FluidParams p;
  Domain3D d(mask, full_box(mask.extents()), p, Method::kLatticeBoltzmann,
             1);
  EXPECT_EQ(&d.field(FieldId::kRho), &d.rho());
  EXPECT_EQ(&d.field(FieldId::kVx), &d.vx());
  EXPECT_EQ(&d.field(FieldId::kVy), &d.vy());
  EXPECT_EQ(&d.field(FieldId::kVz), &d.vz());
  EXPECT_EQ(&d.field(population(14)), &d.f(14));
  EXPECT_THROW(d.field(population(15)), contract_error);
}

TEST(Domain3D, RejectsBoxOutsideGlobalGrid) {
  Mask3D mask(Extents3{8, 8, 8}, 1);
  FluidParams p;
  EXPECT_THROW(Domain3D(mask, Box3{0, 0, 4, 8, 8, 12}, p,
                        Method::kFiniteDifference, 1),
               contract_error);
}

TEST(Domain3D, RejectsInsufficientMaskGhost) {
  Mask3D mask(Extents3{8, 8, 8}, 1);
  FluidParams p;
  EXPECT_THROW(
      Domain3D(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
               3),
      contract_error);
}

}  // namespace
}  // namespace subsonic
