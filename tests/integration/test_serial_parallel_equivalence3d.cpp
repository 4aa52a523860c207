// 3D counterpart of the serial/parallel bitwise-equivalence test,
// covering the decomposition shapes the paper uses in figures 9-11:
// pipelines (Px1x1) and blocks (2x2x2, 3x2x2).
#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
#include "src/runtime/blocked_driver.hpp"
#include "src/runtime/serial_driver.hpp"

namespace subsonic {
namespace {

// gtest has no printer for this struct, so the name ctest registers for
// each case ends in its raw bytes.  The name pointer, whose value moves
// with address-space randomisation, is stored last so that those bytes
// start with fields that are the same in every run.
struct Case3D {
  Case3D(const char* case_name, Method m, double eps, int px, int py, int pz,
         bool p)
      : method(m), filter_eps(eps), jx(px), jy(py), jz(pz), periodic(p),
        name(case_name) {}
  Method method;
  double filter_eps;
  int jx, jy, jz;
  bool periodic;
  const char* name;
};

class Equivalence3D : public ::testing::TestWithParam<Case3D> {};

void perturb(Domain3D& d, Box3 box) {
  for (int z = 0; z < d.nz(); ++z)
    for (int y = 0; y < d.ny(); ++y)
      for (int x = 0; x < d.nx(); ++x) {
        if (d.node(x, y, z) != NodeType::kFluid) continue;
        const int gx = box.x0 + x;
        const int gy = box.y0 + y;
        const int gz = box.z0 + z;
        d.rho()(x, y, z) =
            1.0 + 0.02 * std::sin(0.3 * gx) * std::cos(0.2 * gy + 0.1 * gz);
        d.vx()(x, y, z) = 0.01 * std::sin(0.25 * gy);
        d.vz()(x, y, z) = 0.01 * std::cos(0.2 * gx + 0.3 * gz);
      }
}

TEST_P(Equivalence3D, ParallelMatchesSerialBitwise) {
  const Case3D& c = GetParam();
  const int nx = 20, ny = 16, nz = 12;
  FluidParams p;
  p.dt = c.method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  p.nu = 0.05;
  p.filter_eps = c.filter_eps;
  p.periodic_x = p.periodic_y = p.periodic_z = c.periodic;

  const int ghost = required_ghost(c.method, p.filter_eps > 0.0);
  Mask3D mask(Extents3{nx, ny, nz}, ghost);
  if (!c.periodic) {
    mask.fill_box({0, 0, 0, nx, ny, 1}, NodeType::kWall);
    mask.fill_box({0, 0, nz - 1, nx, ny, nz}, NodeType::kWall);
    mask.fill_box({0, 0, 0, nx, 1, nz}, NodeType::kWall);
    mask.fill_box({0, ny - 1, 0, nx, ny, nz}, NodeType::kWall);
    mask.fill_box({0, 0, 0, 1, ny, nz}, NodeType::kWall);
    mask.fill_box({nx - 1, 0, 0, nx, ny, nz}, NodeType::kWall);
    mask.fill_box({8, 6, 4, 12, 10, 8}, NodeType::kWall);  // obstacle
  }

  SerialDriver<3> serial(mask, p, c.method);
  perturb(serial.domain(), full_box(mask.extents()));
  serial.reinitialize();

  BlockedDriver<3> parallel(mask, p, c.method, GridShape{c.jx, c.jy, c.jz}, 0);
  for (int r = 0; r < parallel.blocks().block_count(); ++r)
    if (parallel.blocks().block_active(r))
      perturb(parallel.block_domain(r), parallel.blocks().box(r));
  parallel.reinitialize();

  const int steps = 12;
  serial.run(steps);
  parallel.run(steps);

  for (FieldId id :
       {FieldId::kRho, FieldId::kVx, FieldId::kVy, FieldId::kVz})
    EXPECT_EQ(max_abs_diff(parallel.gather(id), serial.domain().field(id)),
              0.0)
        << "field " << static_cast<int>(id);
}

class SchedulingEquivalence3D : public ::testing::TestWithParam<Case3D> {};

TEST_P(SchedulingEquivalence3D, LegacyAndOverlapBitwiseIdentical) {
  // Same invariant as 2D: the band/interior reordering of the overlap
  // schedule must leave every field bitwise unchanged.
  const Case3D& c = GetParam();
  const int nx = 20, ny = 16, nz = 12;
  FluidParams p;
  p.dt = c.method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  p.nu = 0.05;
  p.filter_eps = c.filter_eps;
  p.periodic_x = p.periodic_y = p.periodic_z = c.periodic;

  const int ghost = required_ghost(c.method, p.filter_eps > 0.0);
  Mask3D mask(Extents3{nx, ny, nz}, ghost);
  if (!c.periodic) {
    mask.fill_box({0, 0, 0, nx, ny, 1}, NodeType::kWall);
    mask.fill_box({0, 0, nz - 1, nx, ny, nz}, NodeType::kWall);
    mask.fill_box({0, 0, 0, nx, 1, nz}, NodeType::kWall);
    mask.fill_box({0, ny - 1, 0, nx, ny, nz}, NodeType::kWall);
    mask.fill_box({0, 0, 0, 1, ny, nz}, NodeType::kWall);
    mask.fill_box({nx - 1, 0, 0, nx, ny, nz}, NodeType::kWall);
    mask.fill_box({8, 6, 4, 12, 10, 8}, NodeType::kWall);
  }

  BlockedDriver<3> legacy(mask, p, c.method, GridShape{c.jx, c.jy, c.jz}, 0,
                          nullptr, Scheduling::kLegacy);
  BlockedDriver<3> overlap(mask, p, c.method, GridShape{c.jx, c.jy, c.jz}, 0,
                           nullptr, Scheduling::kOverlap);
  for (BlockedDriver<3>* drv : {&legacy, &overlap}) {
    for (int r = 0; r < drv->blocks().block_count(); ++r)
      if (drv->blocks().block_active(r))
        perturb(drv->block_domain(r), drv->blocks().box(r));
    drv->reinitialize();
  }

  const int steps = 12;
  legacy.run(steps);
  overlap.run(steps);

  for (FieldId id :
       {FieldId::kRho, FieldId::kVx, FieldId::kVy, FieldId::kVz})
    EXPECT_EQ(max_abs_diff(legacy.gather(id), overlap.gather(id)), 0.0)
        << "field " << static_cast<int>(id);
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, SchedulingEquivalence3D,
    ::testing::Values(
        Case3D{"lb_2x2x2_filter", Method::kLatticeBoltzmann, 0.2, 2, 2, 2,
               false},
        Case3D{"fd_2x2x2", Method::kFiniteDifference, 0.0, 2, 2, 2, false},
        Case3D{"fd_2x2x1_periodic_filter", Method::kFiniteDifference, 0.2, 2,
               2, 1, true},
        Case3D{"lb_3x1x1_pipeline", Method::kLatticeBoltzmann, 0.0, 3, 1, 1,
               false}),
    [](const auto& param_info) { return param_info.param.name; });

INSTANTIATE_TEST_SUITE_P(
    Decompositions, Equivalence3D,
    ::testing::Values(
        Case3D{"lb_2x2x2", Method::kLatticeBoltzmann, 0.0, 2, 2, 2, false},
        Case3D{"lb_4x1x1_pipeline", Method::kLatticeBoltzmann, 0.0, 4, 1, 1,
               false},
        Case3D{"lb_3x2x2_filter", Method::kLatticeBoltzmann, 0.2, 3, 2, 2,
               false},
        Case3D{"lb_2x2x1_periodic", Method::kLatticeBoltzmann, 0.0, 2, 2, 1,
               true},
        Case3D{"fd_2x2x2", Method::kFiniteDifference, 0.0, 2, 2, 2, false},
        Case3D{"fd_4x1x1_pipeline", Method::kFiniteDifference, 0.0, 4, 1, 1,
               false},
        Case3D{"fd_2x2x2_filter_periodic", Method::kFiniteDifference, 0.2, 2,
               2, 2, true},
        Case3D{"lb_1x1x3_periodic_filter", Method::kLatticeBoltzmann, 0.25,
               1, 1, 3, true}),
    [](const auto& param_info) { return param_info.param.name; });

}  // namespace
}  // namespace subsonic
