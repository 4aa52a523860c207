// The golden table: CRC-32s of the final macro fields of seeded runs,
// committed here so that "this change moved no bit" is a test.  The
// bitwise suites compare each driver with SerialDriver, which runs the
// same kernels, so a change that moves every driver alike passes them;
// this table does not move with the code.  Each entry chains crc32 over
// Domain<Dim>::macro_fields() in order, and within a field over the
// interior pencils, z outer then y, nx doubles each.
//
// The kernels use only + - * / with contraction off, so IEEE-754 fixes
// the values, not the compiler: every entry holds at any SIMD dispatch
// level, thread count and -march.  A change that moves an entry names the
// entry and the intended numerics change in CHANGES.md; a refactor moves
// none (DESIGN.md 7).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "src/geometry/flue_pipe.hpp"
#include "src/runtime/blocked_driver.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/runtime/supervisor.hpp"
#include "src/util/crc32.hpp"
#include "tests/support/workdir.hpp"
#include "tests/support/worlds.hpp"

namespace subsonic {
namespace {

using test::World;

template <typename T>
int depth(const PaddedField2D<T>&) {
  return 1;
}
template <typename T>
int depth(const PaddedField3D<T>& f) {
  return f.nz();
}

/// crc32 chained over the interior of each field in turn: pencils z
/// outer, then y, nx doubles each.
template <typename Field>
std::uint32_t interior_crc(const std::vector<const Field*>& fields) {
  std::uint32_t crc = 0;
  for (const Field* f : fields)
    for (int z = 0; z < depth(*f); ++z)
      for (int y = 0; y < f->ny(); ++y)
        crc = crc32(f->pencil(y, z), sizeof(double) * f->nx(), crc);
  return crc;
}

/// The table's hex spelling of a CRC, for failure messages.
std::string hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

/// Runs `w` serially and returns the CRC of its final macro fields.
template <int Dim>
std::uint32_t serial_crc(const World<Dim>& w) {
  SerialDriver<Dim> serial(w.mask, w.params, w.method);
  if (w.perturbed) {
    test::perturb(serial.domain(), full_box(w.mask.extents()));
    serial.reinitialize();
  }
  serial.run(w.steps);
  std::vector<const typename Domain<Dim>::Field*> fields;
  for (FieldId id : Domain<Dim>::macro_fields())
    fields.push_back(&serial.domain().field(id));
  return interior_crc(fields);
}

/// Runs `w` supervised at block side `side`, from the perturbed state an
/// in-process BlockedDriver dumps at step 0, and returns the CRC of the
/// gathered macro fields.
template <int Dim>
std::uint32_t supervised_crc(const World<Dim>& w, int side,
                             const std::string& name) {
  BlockedDriver<Dim> blocked(w.mask, w.params, w.method, w.grid, side);
  for (int b = 0; b < blocked.blocks().block_count(); ++b)
    if (blocked.blocks().block_active(b))
      test::perturb(blocked.block_domain(b), blocked.blocks().box(b));
  blocked.reinitialize();
  const std::string dir = test::fresh_workdir("golden_" + name);
  blocked.save_blocks(dir);
  ProcessRunOptions options;
  options.block_side = side;
  run_supervised<Dim>(w.mask, w.params, w.method, w.grid, w.steps, dir,
                      options);
  const auto gathered = test::gather_run<Dim>(w, side, dir);
  EXPECT_EQ(gathered.step, w.steps);
  std::filesystem::remove_all(dir);
  return interior_crc(test::macro_of(gathered));
}

// ---- the probe worlds: long serial runs of the paper's geometries -------

World<2> flue_pipe(Method method) {
  World<2> w;
  w.method = method;
  w.params.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  w.params.nu = method == Method::kLatticeBoltzmann ? 0.01 : 0.02;
  w.params.filter_eps = 0.1;
  const Geometry2D g = build_flue_pipe(Extents2{240, 150},
                                       FluePipeVariant::kBasic,
                                       required_ghost(method, true));
  w.mask = g.mask;
  w.params.inlet_vx = g.inlet_speed;
  w.steps = 200;
  w.perturbed = false;
  return w;
}

TEST(GoldenBits, LbFluePipe) {
  EXPECT_EQ(hex(serial_crc(flue_pipe(Method::kLatticeBoltzmann))),
            "63554ca0");
}

TEST(GoldenBits, FdFluePipe) {
  EXPECT_EQ(hex(serial_crc(flue_pipe(Method::kFiniteDifference))),
            "1133c1c1");
}

TEST(GoldenBits, ForcedLbDuct3D) {
  World<3> w;
  w.mask = build_channel3d(Extents3{48, 24, 24}, 1);
  w.params.dt = 1.0;
  w.params.nu = 0.1;
  w.params.periodic_x = true;
  w.params.force_x = 1e-4;
  w.steps = 60;
  w.perturbed = false;
  EXPECT_EQ(hex(serial_crc(w)), "0cc9233d");
}

// ---- seeded worlds, serial and supervised -------------------------------

/// One world of SeededGeometrySweep's draw and its entry.
struct SeededEntry {
  int seed;
  const char* crc;
};

// The ctest name ends in this printout; gtest's default, the raw bytes,
// would carry the crc pointer and change from run to run.
void PrintTo(const SeededEntry& e, std::ostream* os) {
  *os << "seed " << e.seed << ", crc " << e.crc;
}

// Between them: 2D and 3D, LB and FD, the filter on and off, inlets and
// outlets, a periodic wrap on each axis, and an all-solid rank box flush
// against fluid in every world.
constexpr SeededEntry kSeeded[] = {
    {0, "7f4a19c0"},   // 2D LB, filter, periodic y
    {6, "9db231bb"},   // 2D FD, filter, periodic x
    {8, "855c358d"},   // 2D LB, periodic x
    {9, "62790962"},   // 3D LB, filter, periodic z
    {11, "bf83a933"},  // 3D FD, periodic z
    {16, "7d5c0ca6"},  // 2D LB, filter, inlet and outlet
    {17, "623dbe0a"},  // 3D LB, periodic y, inlet and outlet
    {18, "96915907"},  // 2D FD, periodic x, inlet and outlet
    {19, "07728cc9"},  // 3D FD, filter, periodic z, inlet and outlet
};

class GoldenBitsSeeded : public ::testing::TestWithParam<SeededEntry> {};

template <int Dim>
void expect_entry(const SeededEntry& e) {
  int side = 0;
  const World<Dim> w = test::seeded_world<Dim>(e.seed, side);
  EXPECT_EQ(hex(serial_crc(w)), e.crc) << "serial";
  EXPECT_EQ(hex(supervised_crc(w, side, "seed" + std::to_string(e.seed))),
            e.crc)
      << "supervised at block side " << side;
}

TEST_P(GoldenBitsSeeded, SerialAndSupervisedMatchTheTable) {
  const SeededEntry& e = GetParam();
  if (e.seed % 2 == 0)
    expect_entry<2>(e);
  else
    expect_entry<3>(e);
}

INSTANTIATE_TEST_SUITE_P(
    Table, GoldenBitsSeeded, ::testing::ValuesIn(kSeeded),
    [](const ::testing::TestParamInfo<SeededEntry>& p) {
      return "seed" + std::to_string(p.param.seed);
    });

}  // namespace
}  // namespace subsonic
