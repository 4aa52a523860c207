// Solid boxes beside fluid.  A subregion or block that is all wall but
// borders a non-wall node must run: its wall nodes sit in the neighbour's
// ghost ring, and only their owner updates the populations that LB
// bounce-back reflects into the fluid.  Each case compares the serial run
// bitwise with the in-process BlockedDriver and with a supervised run,
// both started from the same state through save_blocks dumps.  The seeded
// sweep then draws random walls, in 2D and 3D, for LB and FD, with an
// all-solid box flush against fluid in every world and one bordering fluid
// only across a periodic wrap whenever a seed picks a periodic axis; a
// third of the seeds also open an inlet and an outlet in the walls.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "src/geometry/flue_pipe.hpp"
#include "src/runtime/blocked_driver.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/runtime/supervisor.hpp"
#include "tests/support/workdir.hpp"
#include "tests/support/worlds.hpp"

namespace subsonic {
namespace {

using test::gather_run;
using test::macro_of;
using test::perturb;
using test::World;

/// |a - b|, infinite when either is NaN.
double gap(double a, double b) {
  return a == b ? 0.0 : std::isnan(a - b) ? INFINITY : std::abs(a - b);
}

/// Largest gap over the interior.
double worst_diff(const PaddedField2D<double>& a,
                  const PaddedField2D<double>& b) {
  double worst = 0.0;
  for (int y = 0; y < a.ny(); ++y)
    for (int x = 0; x < a.nx(); ++x)
      worst = std::max(worst, gap(a(x, y), b(x, y)));
  return worst;
}

double worst_diff(const PaddedField3D<double>& a,
                  const PaddedField3D<double>& b) {
  double worst = 0.0;
  for (int z = 0; z < a.nz(); ++z)
    for (int y = 0; y < a.ny(); ++y)
      for (int x = 0; x < a.nx(); ++x)
        worst = std::max(worst, gap(a(x, y, z), b(x, y, z)));
  return worst;
}

/// Runs `w` serially, then at block side `side` in process and
/// supervised, both from the serial run's start, and expects every macro
/// field of both to equal the serial one bit for bit.
template <int Dim>
void expect_drivers_match_serial(const World<Dim>& w, int side,
                                 const std::string& name) {
  using Traits = DomainTraits<Dim>;
  SCOPED_TRACE(name + " at block side " + std::to_string(side));
  SerialDriver<Dim> serial(w.mask, w.params, w.method);
  if (w.perturbed) {
    perturb(serial.domain(), full_box(w.mask.extents()));
    serial.reinitialize();
  }
  serial.run(w.steps);

  BlockedDriver<Dim> blocked(w.mask, w.params, w.method, w.grid, side);
  if (w.perturbed) {
    for (int b = 0; b < blocked.blocks().block_count(); ++b)
      if (blocked.blocks().block_active(b))
        perturb(blocked.block_domain(b), blocked.blocks().box(b));
    blocked.reinitialize();
  }
  // The supervised run continues from these step-0 dumps.
  const std::string dir =
      test::fresh_workdir("solid_" + name + "_" + std::to_string(side));
  blocked.save_blocks(dir);
  blocked.run(w.steps);

  ProcessRunOptions options;
  options.block_side = side;
  run_supervised<Dim>(w.mask, w.params, w.method, w.grid, w.steps, dir,
                      options);
  const auto supervised = gather_run<Dim>(w, side, dir);
  EXPECT_EQ(supervised.step, w.steps);

  const std::vector<FieldId> ids = Traits::macro_fields();
  const auto fields = macro_of(supervised);
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto& want = serial.domain().field(ids[i]);
    EXPECT_EQ(worst_diff(blocked.gather(ids[i]), want), 0.0)
        << "in process, field " << static_cast<int>(ids[i]);
    EXPECT_EQ(worst_diff(*fields[i], want), 0.0)
        << "supervised, field " << static_cast<int>(ids[i]);
  }
  std::filesystem::remove_all(dir);
}

Mask2D closed_box(int nx, int ny, int ghost) {
  Mask2D mask(Extents2{nx, ny}, ghost);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
  return mask;
}

Mask3D closed_box3d(int nx, int ny, int nz, int ghost) {
  Mask3D mask(Extents3{nx, ny, nz}, ghost);
  mask.fill_box({0, 0, 0, nx, ny, 1}, NodeType::kWall);
  mask.fill_box({0, 0, nz - 1, nx, ny, nz}, NodeType::kWall);
  mask.fill_box({0, 0, 0, nx, 1, nz}, NodeType::kWall);
  mask.fill_box({0, ny - 1, 0, nx, ny, nz}, NodeType::kWall);
  mask.fill_box({0, 0, 0, 1, ny, nz}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, 0, nx, ny, nz}, NodeType::kWall);
  return mask;
}

FluidParams lb_params() {
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.05;
  return p;
}

TEST(SolidBoxBesideFluid, FluePipeChannelBlocksFromRest) {
  // The channel flue pipe at side 16 has 27 all-solid blocks; three of
  // them border fluid.
  World<2> w;
  w.params.dt = 1.0;
  w.params.nu = 0.01;
  w.params.filter_eps = 0.1;
  const Geometry2D g =
      build_flue_pipe(Extents2{240, 150}, FluePipeVariant::kChannel,
                      required_ghost(w.method, true), 0.08);
  w.mask = g.mask;
  w.params.inlet_vx = g.inlet_speed;
  w.grid = GridShape{2, 1, 1};
  w.steps = 60;
  w.perturbed = false;
  expect_drivers_match_serial(w, 16, "flue");
}

TEST(SolidBoxBesideFluid, ClosedBoxWithSolidLeftThird) {
  // 3 x 1 ranks over 30 x 20: rank 0 is all wall, flush against fluid.
  World<2> w;
  w.params = lb_params();
  w.mask = closed_box(30, 20, 1);
  w.mask.fill_box({0, 0, 10, 20}, NodeType::kWall);
  w.grid = GridShape{3, 1, 1};
  expect_drivers_match_serial(w, 0, "third");
}

TEST(SolidBoxBesideFluid, SolidSquareIsOneBlock) {
  // At side 8 the square {16,16,24,24} is exactly the all-wall block (2, 2)
  // of a 5 x 4 block grid.
  World<2> w;
  w.params = lb_params();
  w.mask = closed_box(40, 32, 1);
  w.mask.fill_box({16, 16, 24, 24}, NodeType::kWall);
  w.grid = GridShape{2, 2, 1};
  w.steps = 20;
  expect_drivers_match_serial(w, 8, "square");
}

TEST(SolidBoxBesideFluid, SolidSlab3D) {
  // 3 x 1 x 1 ranks over 30 x 12 x 10: rank 0 is all wall, flush against
  // fluid.
  World<3> w;
  w.params = lb_params();
  w.mask = closed_box3d(30, 12, 10, 1);
  w.mask.fill_box({0, 0, 0, 10, 12, 10}, NodeType::kWall);
  w.grid = GridShape{3, 1, 1};
  expect_drivers_match_serial(w, 0, "slab3d");
}

TEST(SolidBoxBesideFluid, PeriodicChannelBordersFluidAcrossTheWrap) {
  // 30 x 20, periodic in x, walls at y = 0 and y = 19, solid for x < 20:
  // rank 0 borders fluid only across the wrap at x = 29.
  World<2> w;
  w.params = lb_params();
  w.params.periodic_x = true;
  w.mask = Mask2D(Extents2{30, 20}, 1);
  w.mask.fill_box({0, 0, 30, 1}, NodeType::kWall);
  w.mask.fill_box({0, 19, 30, 20}, NodeType::kWall);
  w.mask.fill_box({0, 0, 20, 20}, NodeType::kWall);
  w.grid = GridShape{3, 1, 1};
  expect_drivers_match_serial(w, 0, "wrap");
}

// ---- the seeded sweep ---------------------------------------------------

class SeededGeometrySweep : public ::testing::TestWithParam<int> {};

TEST_P(SeededGeometrySweep, EveryDriverMatchesSerialBitwise) {
  // Each of the four (dimension, method) pairs gets six seeds (see
  // test::seeded_world).
  const int seed = GetParam();
  const std::string name = "sweep" + std::to_string(seed);
  int side = 0;
  if (seed % 2 == 0) {
    const World<2> w = test::seeded_world<2>(seed, side);
    expect_drivers_match_serial(w, 0, name);
    expect_drivers_match_serial(w, side, name);
  } else {
    const World<3> w = test::seeded_world<3>(seed, side);
    expect_drivers_match_serial(w, 0, name);
    expect_drivers_match_serial(w, side, name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededGeometrySweep, ::testing::Range(0, 24));

}  // namespace
}  // namespace subsonic
