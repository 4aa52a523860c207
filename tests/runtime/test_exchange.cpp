#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "src/runtime/domain_traits.hpp"
#include "src/runtime/exchange.hpp"
#include "src/solver/lbm.hpp"

namespace subsonic {
namespace {

FluidParams periodic_params(bool periodic) {
  FluidParams p;
  p.periodic_x = p.periodic_y = p.periodic_z = periodic;
  return p;
}

TEST(LinkPlans2D, InteriorRankHasEightLinks) {
  const Decomposition2D d(Extents2{90, 90}, 3, 3);
  const auto plans =
      make_link_plans<2>(d, d.rank_of(1, 1), 3, periodic_params(false), {});
  EXPECT_EQ(plans.size(), 8u);
}

TEST(LinkPlans2D, CornerRankHasThreeLinks) {
  const Decomposition2D d(Extents2{90, 90}, 3, 3);
  const auto plans =
      make_link_plans<2>(d, d.rank_of(0, 0), 3, periodic_params(false), {});
  EXPECT_EQ(plans.size(), 3u);
}

TEST(LinkPlans2D, SendAndRecvBoxesHaveMatchingSizes) {
  const Decomposition2D d(Extents2{101, 67}, 4, 3);
  for (int r = 0; r < d.rank_count(); ++r)
    for (const LinkPlan2D& p :
         make_link_plans<2>(d, r, 3, periodic_params(false), {})) {
      EXPECT_EQ(p.send_box.count(), p.recv_box.count());
      EXPECT_FALSE(p.send_box.empty());
    }
}

TEST(LinkPlans2D, SendBoxesLieInTheInteriorRecvBoxesInThePadding) {
  const Decomposition2D d(Extents2{80, 60}, 4, 2);
  const int g = 3;
  for (int r = 0; r < d.rank_count(); ++r) {
    const Box2 local{0, 0, d.box(r).width(), d.box(r).height()};
    for (const LinkPlan2D& p :
         make_link_plans<2>(d, r, g, periodic_params(false), {})) {
      EXPECT_EQ(p.send_box.intersect(local), p.send_box);
      EXPECT_TRUE(p.recv_box.intersect(local).empty());
      EXPECT_EQ(p.recv_box.intersect(local.grown(g)), p.recv_box);
    }
  }
}

TEST(LinkPlans2D, DirectionIndicesArePaired) {
  const Decomposition2D d(Extents2{60, 60}, 2, 2);
  for (int r = 0; r < d.rank_count(); ++r)
    for (const LinkPlan2D& p :
         make_link_plans<2>(d, r, 1, periodic_params(false), {})) {
      // dir and peer_dir encode opposite offsets: their (dx,dy) sum to 0.
      const int dx = p.dir % 3 - 1, dy = p.dir / 3 - 1;
      const int pdx = p.peer_dir % 3 - 1, pdy = p.peer_dir / 3 - 1;
      EXPECT_EQ(dx + pdx, 0);
      EXPECT_EQ(dy + pdy, 0);
    }
}

TEST(LinkPlans2D, PeriodicWrapCreatesSelfLinks) {
  const Decomposition2D d(Extents2{40, 40}, 1, 1);
  const auto plans = make_link_plans<2>(d, 0, 2, periodic_params(true), {});
  EXPECT_EQ(plans.size(), 8u);  // all eight wrap back to self
  for (const LinkPlan2D& p : plans) EXPECT_EQ(p.peer, 0);
}

TEST(LinkPlans2D, InactiveNeighboursAreSkipped) {
  const Decomposition2D d(Extents2{60, 20}, 3, 1);
  std::vector<bool> active{true, false, true};
  const FluidParams closed = periodic_params(false);
  EXPECT_TRUE(make_link_plans<2>(d, 0, 1, closed, active).empty());
  EXPECT_TRUE(make_link_plans<2>(d, 2, 1, closed, active).empty());
}

TEST(PackUnpack2D, RoundTripsThroughPayload) {
  Mask2D mask(Extents2{12, 10}, 2);
  FluidParams p;
  Domain2D a(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
             2);
  for (int y = 0; y < 10; ++y)
    for (int x = 0; x < 12; ++x) {
      a.rho()(x, y) = x + 100.0 * y;
      a.vx()(x, y) = -x + 0.5 * y;
    }
  const Box2 box{3, 2, 9, 7};
  const std::vector<FieldId> fields{FieldId::kRho, FieldId::kVx};
  std::vector<double> payload(static_cast<size_t>(box.count()) * 2);
  EXPECT_EQ(pack_into(a, fields, box, payload.data()),
            payload.data() + payload.size());

  Domain2D b(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
             2);
  EXPECT_EQ(unpack_from(b, fields, box, payload.data()),
            payload.data() + payload.size());
  for (int y = box.y0; y < box.y1; ++y)
    for (int x = box.x0; x < box.x1; ++x) {
      EXPECT_DOUBLE_EQ(b.rho()(x, y), x + 100.0 * y);
      EXPECT_DOUBLE_EQ(b.vx()(x, y), -x + 0.5 * y);
    }
}

TEST(PackUnpack2D, WrongPayloadSizeThrows) {
  Mask2D mask(Extents2{6, 6}, 1);
  FluidParams p;
  Domain2D d(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
             1);
  EXPECT_THROW(
      DomainTraits<2>::unpack(d, {FieldId::kRho}, Box2{0, 0, 2, 2}, {1.0}),
      contract_error);
}

// Populations live as strided views into the row-interleaved SoA slab,
// and the serial in-place sweep re-homes those views inside the slab as
// it runs — the ghost exchange must see none of that.  Pack an interior
// edge strip of every population after an odd number of collide-stream
// steps (view origin shifted), unpack it into a second domain's ghost
// strip, and require the ghost cells to equal the source cells bit for
// bit.  A third domain with a different extra_pitch must produce the
// identical payload: the wire format is layout- and pitch-independent.
TEST(PackUnpack2D, PopulationGhostStripIsBitwiseAcrossLayouts) {
  using Traits = DomainTraits<2>;
  Mask2D mask(Extents2{20, 14}, 3);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = true;
  const Box2 box = full_box(mask.extents());

  const auto stir = [&](Domain2D& d) {
    for (int y = 0; y < d.ny(); ++y)
      for (int x = 0; x < d.nx(); ++x)
        d.rho()(x, y) = 1.0 + 0.05 * ((x * 7 + y * 3) % 11) / 11.0;
    lbm::set_equilibrium_both(d);
    for (int s = 0; s < 3; ++s) {  // odd: leaves the view origin shifted
      lbm::collide_stream(d);
      lbm::moments(d);
    }
  };
  Domain2D a(mask, box, p, Method::kLatticeBoltzmann, 3);
  stir(a);
  Domain2D wide(mask, box, p, Method::kLatticeBoltzmann, 3, /*threads=*/0,
                /*extra_pitch=*/5);
  stir(wide);

  const auto fields = population_fields(a.q());
  const Box2 send{0, 0, 20, 3};  // bottom interior strip, full width
  const auto payload = Traits::pack(a, fields, send);
  EXPECT_EQ(Traits::pack(wide, fields, send), payload);

  Domain2D b(mask, box, p, Method::kLatticeBoltzmann, 3);
  const Box2 recv{0, 14, 20, 17};  // the matching top ghost strip
  Traits::unpack(b, fields, recv, payload);
  for (int i = 0; i < a.q(); ++i)
    for (int y = 0; y < 3; ++y)
      for (int x = 0; x < 20; ++x)
        ASSERT_EQ(b.f(i)(x, 14 + y), a.f(i)(x, y))
            << "f" << i << " @ " << x << "," << y;
}

TEST(LinkPlans3D, InteriorRankHasTwentySixLinks) {
  const Decomposition3D d(Extents3{30, 30, 30}, 3, 3, 3);
  const auto plans = make_link_plans<3>(d, d.rank_of(1, 1, 1), 1,
                                        periodic_params(false), {});
  EXPECT_EQ(plans.size(), 26u);
}

TEST(LinkPlans3D, SendRecvCountsMatch) {
  const Decomposition3D d(Extents3{23, 17, 11}, 2, 2, 2);
  for (int r = 0; r < d.rank_count(); ++r)
    for (const LinkPlan3D& p :
         make_link_plans<3>(d, r, 3, periodic_params(false), {}))
      EXPECT_EQ(p.send_box.count(), p.recv_box.count());
}

TEST(PackUnpack3D, RoundTrips) {
  Mask3D mask(Extents3{6, 5, 4}, 1);
  FluidParams p;
  Domain3D a(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
             1);
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 6; ++x) a.vz()(x, y, z) = x + 10 * y + 100 * z;
  const Box3 box{1, 1, 1, 5, 4, 3};
  const auto payload = DomainTraits<3>::pack(a, {FieldId::kVz}, box);
  Domain3D b(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
             1);
  DomainTraits<3>::unpack(b, {FieldId::kVz}, box, payload);
  for (int z = box.z0; z < box.z1; ++z)
    for (int y = box.y0; y < box.y1; ++y)
      for (int x = box.x0; x < box.x1; ++x)
        EXPECT_DOUBLE_EQ(b.vz()(x, y, z), x + 10 * y + 100 * z);
}

// ---- the same exchange layer, typed over both dimensions ---------------

template <typename T>
class LinkPlans : public ::testing::Test {};
template <typename T>
class PackUnpack : public ::testing::Test {};

using Dims = ::testing::Types<std::integral_constant<int, 2>,
                              std::integral_constant<int, 3>>;
struct DimName {
  template <typename T>
  static std::string GetName(int) {
    return std::to_string(T::value) + "D";
  }
};
TYPED_TEST_SUITE(LinkPlans, Dims, DimName);
TYPED_TEST_SUITE(PackUnpack, Dims, DimName);

/// An uneven rank grid, no box thinner than 3 nodes.
template <int Dim>
Decomposition<Dim> uneven_grid() {
  if constexpr (Dim == 2)
    return Decomposition2D(Extents2{23, 17}, 3, 2);
  else
    return Decomposition3D(Extents3{13, 11, 9}, 2, 3, 2);
}

/// Runs `check(d, rank, ghost, params, plans)` for every rank of the
/// uneven grid, closed and periodic, at ghost widths 1 and 3.
template <int Dim, typename Check>
void for_each_plan_set(Check&& check) {
  const auto d = uneven_grid<Dim>();
  for (bool periodic : {false, true})
    for (int ghost : {1, 3}) {
      SCOPED_TRACE((periodic ? "periodic, ghost " : "closed, ghost ") +
                   std::to_string(ghost));
      const FluidParams p = periodic_params(periodic);
      for (int r = 0; r < d.rank_count(); ++r)
        check(d, r, ghost, p, make_link_plans<Dim>(d, r, ghost, p, {}));
    }
}

template <typename Box>
Box local_interior(const Box& b) {
  const auto lo = b.lo();
  std::array<int, lo.size()> to_local;
  for (size_t a = 0; a < lo.size(); ++a) to_local[a] = -lo[a];
  return b.shifted(to_local);
}

TYPED_TEST(LinkPlans, BoxesPairUpInDirectionOrder) {
  constexpr int Dim = TypeParam::value;
  for_each_plan_set<Dim>([](const auto& d, int r, int g, const FluidParams&,
                            const auto& plans) {
    const auto local = local_interior(d.box(r));
    int last_dir = -1;
    for (const auto& p : plans) {
      EXPECT_GT(p.dir, last_dir);
      last_dir = p.dir;
      EXPECT_EQ(p.dir + p.peer_dir, Dim == 2 ? 8 : 26);
      EXPECT_EQ(p.send_box.count(), p.recv_box.count());
      EXPECT_FALSE(p.send_box.empty());
      EXPECT_EQ(p.send_box.intersect(local), p.send_box);
      EXPECT_TRUE(p.recv_box.intersect(local).empty());
      EXPECT_EQ(p.recv_box.intersect(local.grown(g)), p.recv_box);
    }
  });
}

// BlockSet copies a face between two blocks of one rank from the peer's
// send box straight into this block's recv box, so the peer's link back
// along peer_dir must send exactly this link's recv box, moved from this
// box's frame into the peer's (across the wrap on a periodic axis).
TYPED_TEST(LinkPlans, PeerLinkBackSendsTheShiftedRecvBox) {
  constexpr int Dim = TypeParam::value;
  for_each_plan_set<Dim>([](const auto& d, int r, int g, const FluidParams& p,
                            const auto& plans) {
    const auto n = d.global().sizes();
    for (const auto& link : plans) {
      const auto back = make_link_plans<Dim>(d, link.peer, g, p, {});
      const auto it =
          std::find_if(back.begin(), back.end(), [&](const auto& k) {
            return k.dir == link.peer_dir;
          });
      ASSERT_NE(it, back.end());
      EXPECT_EQ(it->peer, r);
      EXPECT_EQ(it->peer_dir, link.dir);
      // This link's recv box in global coordinates, wrapped into the grid.
      auto recv = link.recv_box.shifted(d.box(r).lo());
      std::array<int, Dim> wrap{};
      for (int a = 0; a < Dim; ++a)
        wrap[a] = recv.lo()[a] < 0 ? n[a] : recv.lo()[a] >= n[a] ? -n[a] : 0;
      EXPECT_EQ(recv.shifted(wrap), it->send_box.shifted(d.box(link.peer).lo()))
          << "rank " << r << ", dir " << link.dir;
    }
  });
}

// On a periodic grid with every rank active, the recv boxes of a rank fill
// its padding frame, each node exactly once: they lie in the frame, are
// pairwise disjoint, and their counts add up to the frame's.
TYPED_TEST(LinkPlans, RecvBoxesTileThePaddingFrameOnce) {
  constexpr int Dim = TypeParam::value;
  for_each_plan_set<Dim>([](const auto& d, int r, int g, const FluidParams& p,
                            const auto& plans) {
    if (!p.periodic_x) return;
    const auto local = local_interior(d.box(r));
    std::int64_t covered = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
      covered += plans[i].recv_box.count();
      for (size_t j = 0; j < i; ++j)
        EXPECT_TRUE(plans[i].recv_box.intersect(plans[j].recv_box).empty())
            << "dirs " << plans[i].dir << " and " << plans[j].dir;
    }
    EXPECT_EQ(covered, local.grown(g).count() - local.count()) << "rank " << r;
  });
}

/// A domain over the whole grid whose every node of every macro field,
/// padding included, holds a value unique to (field, node).
template <int Dim>
auto numbered_domain(int ghost) {
  using Domain = typename DomainTraits<Dim>::Domain;
  const FluidParams p;
  if constexpr (Dim == 2) {
    const Mask2D mask(Extents2{11, 9}, ghost);
    auto d = std::make_unique<Domain>(mask, full_box(mask.extents()), p,
                                      Method::kFiniteDifference, ghost);
    for (FieldId id : DomainTraits<2>::macro_fields())
      for (int y = -ghost; y < 9 + ghost; ++y)
        for (int x = -ghost; x < 11 + ghost; ++x)
          d->field(id)(x, y) = static_cast<int>(id) * 1e4 + y * 100 + x;
    return d;
  } else {
    const Mask3D mask(Extents3{7, 6, 5}, ghost);
    auto d = std::make_unique<Domain>(mask, full_box(mask.extents()), p,
                                      Method::kFiniteDifference, ghost);
    for (FieldId id : DomainTraits<3>::macro_fields())
      for (int z = -ghost; z < 5 + ghost; ++z)
        for (int y = -ghost; y < 6 + ghost; ++y)
          for (int x = -ghost; x < 7 + ghost; ++x)
            d->field(id)(x, y, z) =
                static_cast<int>(id) * 1e6 + z * 1e4 + y * 100 + x;
    return d;
  }
}

/// A source box and an equally shaped, disjoint destination box that
/// reaches into a one-node padding.
template <int Dim>
auto source_and_destination() {
  if constexpr (Dim == 2)
    return std::pair{Box2{1, 2, 6, 5}, Box2{-1, 6, 4, 9}};
  else
    return std::pair{Box3{1, 0, 2, 5, 3, 4}, Box3{2, 3, -1, 6, 6, 1}};
}

TYPED_TEST(PackUnpack, CopyBoxEqualsPackThenUnpack) {
  constexpr int Dim = TypeParam::value;
  const auto fields = DomainTraits<Dim>::macro_fields();
  const auto [src, dst] = source_and_destination<Dim>();
  for (int ghost : {1, 3}) {
    auto copied = numbered_domain<Dim>(ghost);
    auto packed = numbered_domain<Dim>(ghost);
    copy_box(*copied, src, *copied, dst, fields);
    std::vector<double> payload(src.count() * fields.size());
    pack_into(*packed, fields, src, payload.data());
    unpack_from(*packed, fields, dst, payload.data());
    for (FieldId id : fields)
      EXPECT_TRUE(copied->field(id) == packed->field(id))
          << "ghost " << ghost << ", field " << static_cast<int>(id);
    // The copy did land: the destination now differs from the start.
    EXPECT_FALSE(copied->field(fields[0]) ==
                 numbered_domain<Dim>(ghost)->field(fields[0]));
  }
}

}  // namespace
}  // namespace subsonic
