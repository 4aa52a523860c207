// The over-decomposed in-process driver: many small blocks per rank, one
// ghost-exchange frame per peer rank — and still bit-identical to the
// monolithic runs, under any owner map.
#include "src/runtime/blocked_driver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/comm/in_memory_transport.hpp"
#include "src/grid/field_ops.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/util/check.hpp"
#include "tests/support/workdir.hpp"

namespace subsonic {
namespace {

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

  BlockDecomposition2D bd(mask, GridShape{2, 1}, 8, ghost);
  BlockedDriver<2> first(mask, p, m, bd);
  first.run(6);
  const std::string dir = test::fresh_workdir("blocked_move");
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
/// its InMemoryTransport, read from the ranks' "transport.*_recv"
/// counters in the driver's registry.
template <int Dim>
Traffic traffic_per_step(const typename DomainTraits<Dim>::Mask& mask,
                         FluidParams p, Method method, GridShape grid) {
  p.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  BlockedDriver<Dim> driver(mask, p, method, grid, 0);
  const auto delivered = [&] {
    Traffic t;
    for (const auto& row : driver.telemetry().metrics().counters()) {
      if (row.name == "transport.msgs_recv") t.msgs += row.value;
      if (row.name == "transport.doubles_recv") t.doubles += row.value;
    }
    return t;
  };
  const Traffic before = delivered();
  const int steps = 3;
  driver.run(steps);
  const Traffic after = delivered();
  return {(after.msgs - before.msgs) / steps,
          (after.doubles - before.doubles) / steps};
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
  // each rank has 8 links, 2 of them to itself and 3 to each other rank.
  // The 2 self faces are copied in place, and the 3 faces bound for one
  // peer rank travel as one frame.  So each rank sends 2 frames per
  // exchange phase: 6 messages a step for LB, 12 for FD.
  FluidParams periodic;
  periodic.periodic_x = periodic.periodic_y = true;
  const Mask2D box(Extents2{36, 24}, 1);
  EXPECT_EQ(traffic_per_step<2>(box, periodic, Method::kLatticeBoltzmann,
                                GridShape{1, 3, 1})
                .msgs,
            6);
  EXPECT_EQ(traffic_per_step<2>(box, periodic, Method::kFiniteDifference,
                                GridShape{1, 3, 1})
                .msgs,
            12);
}

/// Per-rank traffic of one step, worked out from the owner map and the
/// link plans alone: rank r sends one frame to every rank that owns a
/// neighbour of one of its blocks, per exchange phase, and the frames
/// carry every cross-rank face that rank r's blocks feed.
struct RankTraffic {
  std::vector<long> msgs;
  std::vector<long long> doubles;
  long cross_links = 0;  ///< directed cross-rank block links
};

template <int Dim>
RankTraffic expected_traffic(const typename DomainTraits<Dim>::BlockDecomp& bd,
                             const FluidParams& p, Method method) {
  using Traits = DomainTraits<Dim>;
  const int ghost = required_ghost(method, p.filter_eps > 0.0);
  long phases = 0;
  long long fields = 0;  // doubles per face cell over a step's exchanges
  for (const Phase& ph : Traits::make_schedule(method))
    if (ph.kind == Phase::Kind::kExchange) {
      ++phases;
      fields += static_cast<long long>(ph.fields.size());
    }
  const int ranks = bd.rank_count();
  std::vector<std::set<int>> peers(ranks);
  RankTraffic t;
  t.msgs.assign(ranks, 0);
  t.doubles.assign(ranks, 0);
  for (int b = 0; b < bd.block_count(); ++b) {
    if (!bd.block_active(b)) continue;
    for (const auto& link : Traits::make_block_links(bd, b, ghost, p)) {
      const int sender = bd.owner(link.peer);
      if (sender == bd.owner(b)) continue;
      peers[sender].insert(bd.owner(b));
      t.doubles[sender] += link.recv_box.count() * fields;
      ++t.cross_links;
    }
  }
  for (int r = 0; r < ranks; ++r)
    t.msgs[r] = static_cast<long>(peers[r].size()) * phases;
  return t;
}

/// Runs a blocked driver at block side 8 over an InMemoryTransport and
/// checks its per-rank transport counters against expected_traffic, then
/// its fields against the serial driver's.
template <int Dim>
void expect_one_frame_per_peer_rank(
    const typename DomainTraits<Dim>::Mask& mask, const FluidParams& p,
    Method method, GridShape grid) {
  SCOPED_TRACE(method == Method::kLatticeBoltzmann ? "LB" : "FD");
  const int ranks = grid.jx * grid.jy * grid.jz;
  auto transport = std::make_shared<InMemoryTransport>(ranks);
  BlockedDriver<Dim> driver(mask, p, method, grid, /*block_side=*/8,
                            transport);
  const auto& bd = driver.blocks();
  const RankTraffic want = expected_traffic<Dim>(bd, p, method);
  long frames = 0;
  for (int r = 0; r < ranks; ++r) {
    EXPECT_GT(bd.blocks_of(r).size(), 1u) << "rank " << r;
    frames += want.msgs[r];
  }
  // Several faces share a frame, or the case shows nothing.
  ASSERT_LT(frames, want.cross_links * messages_per_step(method));

  auto& metrics = driver.telemetry().metrics();
  auto counters = [&](const char* name) {
    std::vector<long long> v(ranks);
    for (int r = 0; r < ranks; ++r) v[r] = metrics.counter(r, name).value();
    return v;
  };
  const auto msgs0 = counters("transport.msgs_sent");
  const auto doubles0 = counters("transport.doubles_sent");
  const int steps = 20;
  driver.run(steps);
  const auto msgs1 = counters("transport.msgs_sent");
  const auto doubles1 = counters("transport.doubles_sent");
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(msgs1[r] - msgs0[r], steps * want.msgs[r]) << "rank " << r;
    EXPECT_EQ(doubles1[r] - doubles0[r], steps * want.doubles[r])
        << "rank " << r;
  }

  SerialDriver<Dim> serial(mask, p, method);
  serial.run(steps);
  ASSERT_EQ(driver.step(), steps);
  for (FieldId id : DomainTraits<Dim>::macro_fields())
    EXPECT_EQ(max_abs_diff(driver.gather(id), serial.domain().field(id)), 0.0)
        << "field " << static_cast<int>(id);
}

TEST(BlockedDriver, EachRankSendsOneFramePerPeerRankPerPhase) {
  // 40x32 at side 8 is a 5x4 block grid.  The solid square covers block
  // (2, 2), which is inactive, so links into it are dropped on both sides;
  // its one-cell wall ring lies in the active blocks around it.
  Mask2D mask = closed_box(40, 32, 3);
  mask.fill_box({15, 15, 25, 25}, NodeType::kWall);
  ASSERT_FALSE(BlockDecomposition2D(mask, GridShape{2, 1}, 8, 3)
                   .block_active(2 + 2 * 5));
  FluidParams lb;
  lb.dt = 1.0;
  FluidParams fd;
  fd.dt = 0.3;
  fd.filter_eps = 0.2;  // depth-3 faces
  for (GridShape grid : {GridShape{2, 1, 1}, GridShape{2, 2, 1}}) {
    SCOPED_TRACE(std::to_string(grid.jx) + "x" + std::to_string(grid.jy));
    expect_one_frame_per_peer_rank<2>(mask, fd, Method::kFiniteDifference,
                                      grid);
    expect_one_frame_per_peer_rank<2>(mask, lb, Method::kLatticeBoltzmann,
                                      grid);
  }

  Mask3D cube(Extents3{32, 24, 16}, 1);
  cube.fill_box({10, 8, 4, 20, 16, 12}, NodeType::kWall);
  SCOPED_TRACE("3D 2x2x1");
  expect_one_frame_per_peer_rank<3>(cube, lb, Method::kLatticeBoltzmann,
                                    GridShape{2, 2, 1});
}

/// An InMemoryTransport whose frames from rank 1 lose their last double
/// (delta -1) or gain one (delta +1) once armed.
class ResizingTransport final : public Transport {
 public:
  explicit ResizingTransport(int ranks) : inner_(ranks) {}
  void arm(int delta) { delta_ = delta; }

  void send(int src, int dst, MessageTag tag,
            std::vector<double> payload) override {
    if (src == 1 && delta_ != 0)
      payload.resize(payload.size() + static_cast<size_t>(delta_.load()),
                     0.0);
    inner_.send(src, dst, tag, std::move(payload));
  }
  std::vector<double> recv(int dst, int src, MessageTag tag) override {
    return inner_.recv(dst, src, tag);
  }

 private:
  InMemoryTransport inner_;
  std::atomic<int> delta_{0};
};

TEST(BlockedDriver, MalformedFrameIsRejectedNeverReadPast) {
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const Method method = Method::kLatticeBoltzmann;
  const auto schedule = make_schedule<2>(method);
  int phase = 0;
  while (schedule[phase].kind != Phase::Kind::kExchange) ++phase;
  for (int delta : {-1, +1}) {
    SCOPED_TRACE(delta);
    auto transport = std::make_shared<ResizingTransport>(2);
    BlockedDriver<2> driver(mask, p, method, GridShape{2, 1, 1}, 8,
                            transport);
    const auto& bd = driver.blocks();
    long long expected = 0;  // rank 0's frame from rank 1
    for (int b : bd.blocks_of(0))
      for (const auto& link : DomainTraits<2>::make_block_links(bd, b, 1, p))
        if (bd.owner(link.peer) == 1)
          expected += link.recv_box.count() *
                      static_cast<long long>(schedule[phase].fields.size());
    ASSERT_GT(expected, 0);

    transport->arm(delta);
    try {
      driver.run(1);
      ADD_FAILURE() << "a frame of the wrong length was unpacked";
    } catch (const contract_error& e) {
      const std::string what = e.what();
      for (const std::string& part :
           {std::string("from rank 1"), std::string("at step 0"),
            "phase " + std::to_string(phase),
            "expected " + std::to_string(expected),
            "received " + std::to_string(expected + delta)})
        EXPECT_NE(what.find(part), std::string::npos)
            << "\"" << part << "\" not in: " << what;
    }
  }
}

}  // namespace
}  // namespace subsonic
