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
#include <array>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "src/geometry/flue_pipe.hpp"
#include "src/runtime/blocked_driver.hpp"
#include "src/runtime/gather.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/runtime/supervisor.hpp"
#include "src/util/rng.hpp"
#include "tests/support/workdir.hpp"

namespace subsonic {
namespace {

/// The equivalence suites' smooth perturbation, written in global
/// coordinates so that every layout starts from the same state.
void perturb(Domain2D& d, Box2 box) {
  for (int y = 0; y < d.ny(); ++y)
    for (int x = 0; x < d.nx(); ++x) {
      if (d.node(x, y) != NodeType::kFluid) continue;
      const int gx = box.x0 + x;
      const int gy = box.y0 + y;
      d.rho()(x, y) = 1.0 + 0.02 * std::sin(0.2 * gx) * std::cos(0.3 * gy);
      d.vx()(x, y) = 0.01 * std::sin(0.15 * gy + 0.4);
      d.vy()(x, y) = 0.01 * std::cos(0.25 * gx);
    }
}

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

std::vector<const PaddedField2D<double>*> macro_of(const GatheredFields2D& g) {
  return {&g.rho, &g.vx, &g.vy};
}

std::vector<const PaddedField3D<double>*> macro_of(const GatheredFields3D& g) {
  return {&g.rho, &g.vx, &g.vy, &g.vz};
}

template <int Dim>
struct World {
  typename DomainTraits<Dim>::Mask mask;
  FluidParams params;
  Method method = Method::kLatticeBoltzmann;
  GridShape grid;
  int steps = 7;
  bool perturbed = true;
};

template <int Dim>
auto gather_run(const World<Dim>& w, int side, const std::string& dir) {
  if constexpr (Dim == 2)
    return gather_fields2d_blocked(w.mask, w.params, w.method, w.grid.jx,
                                   w.grid.jy, side, dir);
  else
    return gather_fields3d_blocked(w.mask, w.params, w.method, w.grid.jx,
                                   w.grid.jy, w.grid.jz, side, dir);
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

/// Uniform in [lo, hi].
int draw(Rng& rng, int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(rng.below(span));
}

/// The box with corners `lo` and `hi`, read on the first Dim axes.
template <int Dim>
auto box_of(const std::array<int, 3>& lo, const std::array<int, 3>& hi) {
  if constexpr (Dim == 2)
    return Box2{lo[0], lo[1], hi[0], hi[1]};
  else
    return Box3{lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]};
}

/// Lower corner of `b` along axis `a`.
int low(const Box2& b, int a) { return a == 0 ? b.x0 : b.y0; }
int low(const Box3& b, int a) { return a == 0 ? b.x0 : a == 1 ? b.y0 : b.z0; }

template <int Dim>
World<Dim> draw_world(Rng& rng, Method method, int& side) {
  using Box = typename DomainTraits<Dim>::Box;
  World<Dim> w;
  w.method = method;
  w.params.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  w.params.nu = 0.05;
  w.params.filter_eps = rng.below(2) ? 0.1 : 0.0;
  const int ghost = required_ghost(method, w.params.filter_eps > 0.0);
  side = std::max(ghost, Dim == 2 ? 8 : 6);

  std::array<int, 3> n{1, 1, 1}, j{1, 1, 1};
  for (int a = 0; a < Dim; ++a) {
    n[a] = Dim == 2 ? draw(rng, 24, 48) : draw(rng, 12, 24);
    j[a] = draw(rng, 1, Dim == 2 ? 3 : 2);
  }
  if (j[0] * j[1] * j[2] == 1) j[0] = 2;
  w.grid = GridShape{j[0], j[1], j[2]};
  const int periodic = static_cast<int>(rng.below(Dim + 1)) - 1;  // -1: none
  bool* flags[3] = {&w.params.periodic_x, &w.params.periodic_y,
                    &w.params.periodic_z};
  if (periodic >= 0) *flags[periodic] = true;

  if constexpr (Dim == 2)
    w.mask = Mask2D(Extents2{n[0], n[1]}, ghost);
  else
    w.mask = Mask3D(Extents3{n[0], n[1], n[2]}, ghost);
  for (int a = 0; a < Dim; ++a) {
    if (a == periodic) continue;
    std::array<int, 3> lo{0, 0, 0}, hi = n;
    hi[a] = 1;
    w.mask.fill_box(box_of<Dim>(lo, hi), NodeType::kWall);
    lo[a] = n[a] - 1;
    hi[a] = n[a];
    w.mask.fill_box(box_of<Dim>(lo, hi), NodeType::kWall);
  }
  for (int k = draw(rng, 1, 3); k > 0; --k) {
    std::array<int, 3> lo{0, 0, 0}, hi{1, 1, 1};
    for (int a = 0; a < Dim; ++a) {
      lo[a] = draw(rng, 0, n[a] - 2);
      hi[a] = std::min(n[a], lo[a] + draw(rng, 1, n[a] / 3));
    }
    w.mask.fill_box(box_of<Dim>(lo, hi), NodeType::kWall);
  }

  const auto ranks = DomainTraits<Dim>::make_decomposition(w.mask, w.grid);
  const int count = ranks.rank_count();
  w.mask.fill_box(ranks.box(static_cast<int>(rng.below(count))),
                  NodeType::kWall);
  if (periodic >= 0) {
    // A rank whose coordinate along the periodic axis is 0.
    std::vector<int> at_wrap;
    for (int r = 0; r < count; ++r)
      if (low(ranks.box(r), periodic) == 0) at_wrap.push_back(r);
    const Box box = ranks.box(at_wrap[rng.below(at_wrap.size())]);
    w.mask.fill_box(box.grown(1), NodeType::kWall);
  }
  w.steps = 8;
  return w;
}

/// A random world of `Dim` dimensions: walls closing every non-periodic
/// axis, one to three random wall boxes, the subregion of one rank filled
/// with wall exactly (flush against whatever fluid surrounds it), and,
/// when the seed picks a periodic axis, a rank at the low end of that axis
/// walled one node beyond its box, so that it borders fluid only across
/// the wrap.  A world is redrawn until a quarter of its nodes are fluid.
template <int Dim>
World<Dim> random_world(Rng& rng, Method method, int& side) {
  for (;;) {
    World<Dim> w = draw_world<Dim>(rng, method, side);
    const auto all = full_box(w.mask.extents());
    if (4 * w.mask.count_box(all, NodeType::kFluid) >= all.count()) return w;
  }
}

/// Opens one inlet patch and one outlet patch, each on its own wall of
/// those closing the non-periodic axes, and blows a small inlet velocity
/// into the domain.  Drawn after the world, so the walls match the seed's
/// wall-only draw.
template <int Dim>
void add_openings(World<Dim>& w, Rng& rng) {
  const bool periodic[3] = {w.params.periodic_x, w.params.periodic_y,
                            w.params.periodic_z};
  const std::array<int, Dim> n = w.mask.extents().sizes();
  std::vector<std::array<int, 2>> walls;  // {axis, 0: low end / 1: high end}
  for (int a = 0; a < Dim; ++a)
    if (!periodic[a]) {
      walls.push_back({a, 0});
      walls.push_back({a, 1});
    }
  const std::size_t in = rng.below(walls.size());
  std::size_t out = rng.below(walls.size() - 1);
  if (out >= in) ++out;
  const auto patch = [&](const std::array<int, 2>& wall) {
    std::array<int, 3> lo{0, 0, 0}, hi{1, 1, 1};
    for (int b = 0; b < Dim; ++b) {
      if (b == wall[0]) {
        lo[b] = wall[1] ? n[b] - 1 : 0;
        hi[b] = lo[b] + 1;
      } else {
        lo[b] = draw(rng, 1, n[b] - 3);
        hi[b] = std::min(n[b] - 1, lo[b] + draw(rng, 2, n[b] / 3));
      }
    }
    return box_of<Dim>(lo, hi);
  };
  w.mask.fill_box(patch(walls[in]), NodeType::kInlet);
  w.mask.fill_box(patch(walls[out]), NodeType::kOutlet);
  double* inlet[3] = {&w.params.inlet_vx, &w.params.inlet_vy,
                      &w.params.inlet_vz};
  *inlet[walls[in][0]] = walls[in][1] ? -0.02 : 0.02;
}

class SeededGeometrySweep : public ::testing::TestWithParam<int> {};

TEST_P(SeededGeometrySweep, EveryDriverMatchesSerialBitwise) {
  const int seed = GetParam();
  Rng rng(0x5eed0000u + static_cast<std::uint64_t>(seed));
  // Seeds alternate the dimension and, in pairs, the method, so each of
  // the four (dimension, method) pairs gets six seeds.  Seeds 16 and up
  // also open an inlet and an outlet in the walls.
  const Method method = (seed / 2) % 2 ? Method::kFiniteDifference
                                       : Method::kLatticeBoltzmann;
  const std::string name = "sweep" + std::to_string(seed);
  int side = 0;
  if (seed % 2 == 0) {
    World<2> w = random_world<2>(rng, method, side);
    if (seed >= 16) add_openings(w, rng);
    expect_drivers_match_serial(w, 0, name);
    expect_drivers_match_serial(w, side, name);
  } else {
    World<3> w = random_world<3>(rng, method, side);
    if (seed >= 16) add_openings(w, rng);
    expect_drivers_match_serial(w, 0, name);
    expect_drivers_match_serial(w, side, name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededGeometrySweep, ::testing::Range(0, 24));

}  // namespace
}  // namespace subsonic
