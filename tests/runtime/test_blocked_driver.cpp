// The over-decomposed in-process driver: many small blocks per rank, ghost
// exchange at block granularity — and still bit-identical to the
// monolithic runs, under any owner map.
#include "src/runtime/blocked_driver.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "src/comm/in_memory_transport.hpp"
#include "src/runtime/serial_driver.hpp"

namespace subsonic {
namespace {

std::string make_workdir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/blocked_" +
                          name + "_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

Mask2D closed_box(int nx, int ny, int ghost) {
  Mask2D mask(Extents2{nx, ny}, ghost);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
  mask.fill_box({12, 8, 18, 14}, NodeType::kWall);  // obstacle
  return mask;
}

/// Bitwise comparison of a blocked driver's gathered fields against an
/// uninterrupted serial run of the same problem.
void expect_matches_serial2d(BlockedDriver<2>& driver, const Mask2D& mask,
                             const FluidParams& p, Method method, int steps) {
  SerialDriver<2> serial(mask, p, method);
  serial.run(steps);
  EXPECT_EQ(driver.step(), steps);
  const auto rho = driver.gather(FieldId::kRho);
  const auto vx = driver.gather(FieldId::kVx);
  const auto vy = driver.gather(FieldId::kVy);
  for (int y = 0; y < mask.extents().ny; ++y)
    for (int x = 0; x < mask.extents().nx; ++x) {
      ASSERT_EQ(rho(x, y), serial.domain().rho()(x, y)) << x << "," << y;
      ASSERT_EQ(vx(x, y), serial.domain().vx()(x, y)) << x << "," << y;
      ASSERT_EQ(vy(x, y), serial.domain().vy()(x, y)) << x << "," << y;
    }
}

TEST(BlockedDriver, SingleRankManyBlocksMatchesSerialBitwiseLB) {
  const int nx = 36, ny = 24;
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  p.inlet_vx = 0.06;
  Mask2D mask = closed_box(nx, ny, 1);
  mask.fill_box({0, 10, 1, 14}, NodeType::kInlet);
  mask.fill_box({nx - 1, 10, nx, 14}, NodeType::kOutlet);

  BlockedDriver<2> driver(mask, p, Method::kLatticeBoltzmann,
                          GridShape{1, 1, 1}, /*block_side=*/8);
  EXPECT_GT(driver.blocks().block_count(), 4);  // genuinely over-decomposed
  driver.run(10);
  expect_matches_serial2d(driver, mask, p, Method::kLatticeBoltzmann, 10);
}

TEST(BlockedDriver, RankGridWithBlocksMatchesSerialBitwiseLB) {
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  BlockedDriver<2> driver(mask, p, Method::kLatticeBoltzmann,
                          GridShape{2, 2, 1}, /*block_side=*/8);
  driver.run(12);
  expect_matches_serial2d(driver, mask, p, Method::kLatticeBoltzmann, 12);
}

TEST(BlockedDriver, RankGridWithBlocksMatchesSerialBitwiseFD) {
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 0.5;
  BlockedDriver<2> driver(mask, p, Method::kFiniteDifference,
                          GridShape{2, 1, 1}, /*block_side=*/8);
  driver.run(10);
  expect_matches_serial2d(driver, mask, p, Method::kFiniteDifference, 10);
}

TEST(BlockedDriver, ThreadCountIsBitwiseNeutral) {
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  BlockedDriver<2> one(mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1},
                       8, nullptr, Scheduling::kOverlap, /*threads=*/1);
  BlockedDriver<2> three(mask, p, Method::kLatticeBoltzmann,
                         GridShape{2, 2, 1}, 8, nullptr, Scheduling::kOverlap,
                         /*threads=*/3);
  one.run(8);
  three.run(8);
  const auto a = one.gather(FieldId::kVx);
  const auto b = three.gather(FieldId::kVx);
  for (int y = 0; y < mask.extents().ny; ++y)
    for (int x = 0; x < mask.extents().nx; ++x)
      ASSERT_EQ(a(x, y), b(x, y)) << x << "," << y;
}

TEST(BlockedDriver, ThreeDimensionalBlocksMatchSerialBitwise) {
  Mask3D mask(Extents3{16, 12, 10}, 1);
  mask.fill_box({6, 4, 3, 10, 8, 7}, NodeType::kWall);
  FluidParams p;
  p.dt = 1.0;
  BlockedDriver<3> driver(mask, p, Method::kLatticeBoltzmann,
                          GridShape{2, 1, 1}, /*block_side=*/6);
  driver.run(6);
  SerialDriver<3> serial(mask, p, Method::kLatticeBoltzmann);
  serial.run(6);
  const auto rho = driver.gather(FieldId::kRho);
  const auto vz = driver.gather(FieldId::kVz);
  for (int z = 0; z < 10; ++z)
    for (int y = 0; y < 12; ++y)
      for (int x = 0; x < 16; ++x) {
        ASSERT_EQ(rho(x, y, z), serial.domain().rho()(x, y, z));
        ASSERT_EQ(vz(x, y, z), serial.domain().vz()(x, y, z));
      }
}

TEST(BlockedDriver, OwnerMapRewriteMidRunIsBitwise) {
  // Run 12 steps straight; separately run 6, save the blocks, restart a
  // new driver whose owner map moved blocks to the other rank, restore,
  // run 6 more.  Block assignment must not affect a single bit.
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const Method m = Method::kLatticeBoltzmann;
  const int ghost = required_ghost(m, p.filter_eps > 0.0);

  BlockedDriver<2> straight(mask, p, m, GridShape{2, 1, 1}, 8);
  straight.run(12);

  BlockDecomposition2D bd(mask, 2, 1, 8, ghost);
  BlockedDriver<2> first(mask, p, m, bd);
  first.run(6);
  const std::string dir = make_workdir("move");
  first.save_blocks(dir);

  // Rebalance: push every block but one of rank 0 over to rank 1.
  std::vector<int> owner = bd.owner_map();
  bool kept_one = false;
  for (int b = 0; b < bd.block_count(); ++b) {
    if (owner[b] != 0) continue;
    if (!kept_one) {
      kept_one = true;
      continue;
    }
    owner[b] = 1;
  }
  bd.set_owner_map(owner);
  BlockedDriver<2> second(mask, p, m, bd);
  second.restore_blocks(dir);
  EXPECT_EQ(second.step(), 6);
  second.run(6);

  const auto a = straight.gather(FieldId::kVx);
  const auto b = second.gather(FieldId::kVx);
  const auto ar = straight.gather(FieldId::kRho);
  const auto br = second.gather(FieldId::kRho);
  for (int y = 0; y < mask.extents().ny; ++y)
    for (int x = 0; x < mask.extents().nx; ++x) {
      ASSERT_EQ(a(x, y), b(x, y)) << x << "," << y;
      ASSERT_EQ(ar(x, y), br(x, y)) << x << "," << y;
    }
}

struct Traffic {
  long msgs = 0;
  long long doubles = 0;
  friend bool operator==(const Traffic&, const Traffic&) = default;
};

std::ostream& operator<<(std::ostream& os, const Traffic& t) {
  return os << t.msgs << " messages, " << t.doubles << " doubles";
}

/// Messages and payload doubles one step of a side-0 run pushes through
/// its InMemoryTransport.
template <int Dim>
Traffic traffic_per_step(const typename DomainTraits<Dim>::Mask& mask,
                         FluidParams p, Method method, GridShape grid) {
  p.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  auto transport =
      std::make_shared<InMemoryTransport>(grid.jx * grid.jy * grid.jz);
  BlockedDriver<Dim> driver(mask, p, method, grid, 0, transport);
  const long msgs0 = transport->messages_delivered();
  const long long doubles0 = transport->doubles_delivered();
  const int steps = 3;
  driver.run(steps);
  return {(transport->messages_delivered() - msgs0) / steps,
          (transport->doubles_delivered() - doubles0) / steps};
}

TEST(BlockedDriver, SideZeroTrafficIsThePapersMessageAccounting) {
  // Section 6: FD sends 2 messages per link and step, LB 1.  The full
  // stencil gives (2x2) 12 directed links and (2x2x2) 56.  The payloads
  // are depth-3 strips, because the filter needs a 3-deep ghost.
  FluidParams p;
  p.filter_eps = 0.2;
  const Mask2D square(Extents2{96, 96}, 3);
  EXPECT_EQ(traffic_per_step<2>(square, p, Method::kFiniteDifference,
                                GridShape{2, 2, 1}),
            (Traffic{24, 3564}));
  EXPECT_EQ(traffic_per_step<2>(square, p, Method::kLatticeBoltzmann,
                                GridShape{2, 2, 1}),
            (Traffic{12, 10692}));
  const Mask3D cube(Extents3{32, 32, 32}, 3);
  EXPECT_EQ(traffic_per_step<3>(cube, p, Method::kFiniteDifference,
                                GridShape{2, 2, 2}),
            (Traffic{112, 88416}));
  EXPECT_EQ(traffic_per_step<3>(cube, p, Method::kLatticeBoltzmann,
                                GridShape{2, 2, 2}),
            (Traffic{56, 331560}));

  // A rank that is its own neighbour across a periodic axis: at (1x3)
  // each rank has 8 links, 2 of them to itself, and those faces go
  // through the mailbox instead of the transport.
  FluidParams periodic;
  periodic.periodic_x = periodic.periodic_y = true;
  const Mask2D box(Extents2{36, 24}, 1);
  EXPECT_EQ(traffic_per_step<2>(box, periodic, Method::kLatticeBoltzmann,
                                GridShape{1, 3, 1})
                .msgs,
            18);
  EXPECT_EQ(traffic_per_step<2>(box, periodic, Method::kFiniteDifference,
                                GridShape{1, 3, 1})
                .msgs,
            36);
}

}  // namespace
}  // namespace subsonic
