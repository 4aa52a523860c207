// The load-bearing integration test: a parallel run over any decomposition
// must reproduce the serial run bit for bit.  This is the paper's claim
// that padding separates computation from communication so completely that
// the parallel program is a straightforward extension of the serial one
// (section 4.2) — every ghost value a stencil reads must equal the value
// the serial program would have read.
#include <gtest/gtest.h>

#include <cmath>

#include "src/comm/udp_transport.hpp"
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
struct Case {
  Case(const char* case_name, Method m, double eps, int px, int py, bool p)
      : method(m), filter_eps(eps), jx(px), jy(py), periodic(p),
        name(case_name) {}
  Method method;
  double filter_eps;
  int jx, jy;
  bool periodic;
  const char* name;
};

class Equivalence : public ::testing::TestWithParam<Case> {};

void perturb(Domain2D& d, Box2 box) {
  // A smooth deterministic perturbation written in *global* coordinates so
  // serial and parallel runs get the same initial state.
  for (int y = 0; y < d.ny(); ++y)
    for (int x = 0; x < d.nx(); ++x) {
      const int gx = box.x0 + x;
      const int gy = box.y0 + y;
      if (d.node(x, y) != NodeType::kFluid) continue;
      d.rho()(x, y) = 1.0 + 0.02 * std::sin(0.2 * gx) * std::cos(0.3 * gy);
      d.vx()(x, y) = 0.01 * std::sin(0.15 * gy + 0.4);
      d.vy()(x, y) = 0.01 * std::cos(0.25 * gx);
    }
}

TEST_P(Equivalence, ParallelMatchesSerialBitwise) {
  const Case& c = GetParam();
  const int nx = 48, ny = 36;
  FluidParams p;
  p.dt = c.method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  p.nu = 0.05;
  p.filter_eps = c.filter_eps;
  p.periodic_x = p.periodic_y = c.periodic;

  const int ghost = required_ghost(c.method, p.filter_eps > 0.0);
  Mask2D mask(Extents2{nx, ny}, ghost);
  if (!c.periodic) {
    // Enclose the domain and add an internal obstacle.
    mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
    mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
    mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
    mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
    mask.fill_box({20, 12, 26, 20}, NodeType::kWall);
  } else {
    mask.fill_box({10, 10, 14, 14}, NodeType::kWall);
  }

  SerialDriver<2> serial(mask, p, c.method);
  perturb(serial.domain(), full_box(mask.extents()));
  serial.reinitialize();

  BlockedDriver<2> parallel(mask, p, c.method, GridShape{c.jx, c.jy, 1}, 0);
  for (int r = 0; r < parallel.blocks().block_count(); ++r)
    if (parallel.blocks().block_active(r))
      perturb(parallel.block_domain(r), parallel.blocks().box(r));
  parallel.reinitialize();

  const int steps = 25;
  serial.run(steps);
  parallel.run(steps);

  for (FieldId id : {FieldId::kRho, FieldId::kVx, FieldId::kVy})
    EXPECT_EQ(max_abs_diff(parallel.gather(id), serial.domain().field(id)),
              0.0)
        << "parallel and serial runs diverged in field "
        << static_cast<int>(id);
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, Equivalence,
    ::testing::Values(
        Case{"lb_2x2", Method::kLatticeBoltzmann, 0.0, 2, 2, false},
        Case{"lb_3x3_filter", Method::kLatticeBoltzmann, 0.2, 3, 3, false},
        Case{"lb_4x1_periodic", Method::kLatticeBoltzmann, 0.0, 4, 1, true},
        Case{"lb_1x4_periodic_filter", Method::kLatticeBoltzmann, 0.3, 1, 4,
             true},
        Case{"lb_5x4", Method::kLatticeBoltzmann, 0.1, 5, 4, false},
        Case{"fd_2x2", Method::kFiniteDifference, 0.0, 2, 2, false},
        Case{"fd_3x2_filter", Method::kFiniteDifference, 0.2, 3, 2, false},
        Case{"fd_4x1_periodic", Method::kFiniteDifference, 0.0, 4, 1, true},
        Case{"fd_2x3_periodic_filter", Method::kFiniteDifference, 0.25, 2, 3,
             true},
        Case{"fd_5x4", Method::kFiniteDifference, 0.1, 5, 4, false},
        Case{"lb_1x1", Method::kLatticeBoltzmann, 0.2, 1, 1, false},
        Case{"fd_1x1_periodic", Method::kFiniteDifference, 0.2, 1, 1, true}),
    [](const auto& param_info) { return param_info.param.name; });

class SchedulingEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(SchedulingEquivalence, LegacyAndOverlapBitwiseIdentical) {
  // The overlap schedule reorders work inside a step (band, sends,
  // interior, receives) but must not change a single bit of the result —
  // that is what lets it default on everywhere.
  const Case& c = GetParam();
  const int nx = 44, ny = 32;
  FluidParams p;
  p.dt = c.method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  p.nu = 0.05;
  p.filter_eps = c.filter_eps;
  p.periodic_x = p.periodic_y = c.periodic;

  const int ghost = required_ghost(c.method, p.filter_eps > 0.0);
  Mask2D mask(Extents2{nx, ny}, ghost);
  if (!c.periodic) {
    mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
    mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
    mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
    mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
    mask.fill_box({18, 10, 24, 18}, NodeType::kWall);
  }

  BlockedDriver<2> legacy(mask, p, c.method, GridShape{c.jx, c.jy, 1}, 0,
                          nullptr, Scheduling::kLegacy);
  BlockedDriver<2> overlap(mask, p, c.method, GridShape{c.jx, c.jy, 1}, 0,
                           nullptr, Scheduling::kOverlap);
  for (BlockedDriver<2>* drv : {&legacy, &overlap}) {
    for (int r = 0; r < drv->blocks().block_count(); ++r)
      if (drv->blocks().block_active(r))
        perturb(drv->block_domain(r), drv->blocks().box(r));
    drv->reinitialize();
  }

  const int steps = 25;
  legacy.run(steps);
  overlap.run(steps);

  for (FieldId id : {FieldId::kRho, FieldId::kVx, FieldId::kVy})
    EXPECT_EQ(max_abs_diff(legacy.gather(id), overlap.gather(id)), 0.0)
        << "field " << static_cast<int>(id);
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, SchedulingEquivalence,
    ::testing::Values(
        Case{"lb_2x2", Method::kLatticeBoltzmann, 0.0, 2, 2, false},
        Case{"lb_3x2_filter", Method::kLatticeBoltzmann, 0.2, 3, 2, false},
        Case{"lb_4x1_periodic_filter", Method::kLatticeBoltzmann, 0.25, 4, 1,
             true},
        Case{"fd_2x2", Method::kFiniteDifference, 0.0, 2, 2, false},
        Case{"fd_3x2_filter", Method::kFiniteDifference, 0.2, 3, 2, false},
        Case{"fd_2x3_periodic_filter", Method::kFiniteDifference, 0.25, 2, 3,
             true}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(SchedulingEquivalence2, FluePipeWithInactiveSubregions) {
  // Overlap vs legacy on the Figure-2 jet geometry, where several
  // subregions are entirely solid: the band/interior split must cope
  // with masked-off rows and absent neighbours.
  const Geometry2D g =
      build_flue_pipe(Extents2{180, 120}, FluePipeVariant::kChannel, 3);
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  p.filter_eps = 0.1;
  p.inlet_vx = g.inlet_speed;

  BlockedDriver<2> legacy(g.mask, p, Method::kLatticeBoltzmann,
                          GridShape{6, 4, 1}, 0, nullptr, Scheduling::kLegacy);
  BlockedDriver<2> overlap(g.mask, p, Method::kLatticeBoltzmann,
                           GridShape{6, 4, 1}, 0, nullptr,
                           Scheduling::kOverlap);
  ASSERT_LT(overlap.active_count(), 24);

  const int steps = 30;
  legacy.run(steps);
  overlap.run(steps);

  for (FieldId id : {FieldId::kRho, FieldId::kVx, FieldId::kVy})
    EXPECT_EQ(max_abs_diff(legacy.gather(id), overlap.gather(id)), 0.0)
        << "field " << static_cast<int>(id);
  // The jet must actually be flowing, or the comparison proves nothing.
  EXPECT_GT(max_abs(legacy.gather(FieldId::kVx)), 0.01);
}

TEST(EquivalenceFluePipe, JetGeometryWithInactiveSubregions) {
  // The Figure-2 style geometry: some subregions are entirely solid and
  // run no process at all; the result must still match the serial run.
  const Geometry2D g =
      build_flue_pipe(Extents2{180, 120}, FluePipeVariant::kChannel, 3);
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  p.filter_eps = 0.1;
  p.inlet_vx = g.inlet_speed;

  SerialDriver<2> serial(g.mask, p, Method::kLatticeBoltzmann);
  BlockedDriver<2> parallel(g.mask, p, Method::kLatticeBoltzmann,
                            GridShape{6, 4, 1}, 0);
  EXPECT_LT(parallel.active_count(), 24);

  const int steps = 30;
  serial.run(steps);
  parallel.run(steps);

  for (FieldId id : {FieldId::kRho, FieldId::kVx, FieldId::kVy})
    EXPECT_EQ(max_abs_diff(parallel.gather(id), serial.domain().field(id)),
              0.0)
        << "field " << static_cast<int>(id);
  // And the jet must actually be flowing.
  EXPECT_GT(max_abs(serial.domain().vx()), 0.01);
}

TEST(EquivalenceTransport, UdpDatagramsProduceTheSameFlow) {
  // Appendix D's alternative transport: reliable delivery is implemented
  // in user space over datagrams, with deliberate packet loss injected to
  // exercise the retransmission path — the flow must still match serial.
  const int nx = 30, ny = 20;
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.05;
  Mask2D mask(Extents2{nx, ny}, 1);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);

  SerialDriver<2> serial(mask, p, Method::kLatticeBoltzmann);
  perturb(serial.domain(), full_box(mask.extents()));
  serial.reinitialize();

  UdpOptions opt;
  opt.drop_every_n = 7;  // lose every 7th datagram on purpose
  opt.retransmit_timeout_s = 0.005;
  auto udp = std::make_shared<UdpTransport>(4, opt);
  BlockedDriver<2> parallel(mask, p, Method::kLatticeBoltzmann,
                            GridShape{2, 2, 1}, 0, udp);
  for (int r = 0; r < 4; ++r)
    perturb(parallel.block_domain(r), parallel.blocks().box(r));
  parallel.reinitialize();

  serial.run(8);
  parallel.run(8);

  EXPECT_EQ(
      max_abs_diff(parallel.gather(FieldId::kRho), serial.domain().rho()),
      0.0);
  // The driver attaches its registry to the transport.
  long long dropped = 0, retransmitted = 0;
  for (const auto& row : parallel.telemetry().metrics().counters()) {
    if (row.name == "transport.datagrams_dropped") dropped += row.value;
    if (row.name == "transport.retransmissions") retransmitted += row.value;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(retransmitted, 0);
}

}  // namespace
}  // namespace subsonic
