#include "src/solver/schedule.hpp"

#include <gtest/gtest.h>

#include "src/solver/lattice.hpp"

namespace subsonic {
namespace {

int exchange_count(const std::vector<Phase>& s) {
  int n = 0;
  for (const Phase& p : s)
    if (p.kind == Phase::Kind::kExchange) ++n;
  return n;
}

TEST(Schedule, FdSendsTwoMessagesPerStep) {
  // Paper section 6: FD communicates V and rho separately.
  const auto s = make_schedule<2>(Method::kFiniteDifference);
  EXPECT_EQ(exchange_count(s), 2);
  EXPECT_EQ(messages_per_step(Method::kFiniteDifference), 2);
}

TEST(Schedule, LbSendsOneMessagePerStep) {
  const auto s = make_schedule<2>(Method::kLatticeBoltzmann);
  EXPECT_EQ(exchange_count(s), 1);
  EXPECT_EQ(messages_per_step(Method::kLatticeBoltzmann), 1);
}

TEST(Schedule, FdExchangesVelocityThenDensity) {
  const auto s = make_schedule<2>(Method::kFiniteDifference);
  std::vector<std::vector<FieldId>> exchanges;
  for (const Phase& p : s)
    if (p.kind == Phase::Kind::kExchange) exchanges.push_back(p.fields);
  ASSERT_EQ(exchanges.size(), 2u);
  EXPECT_EQ(exchanges[0], (std::vector<FieldId>{FieldId::kVx, FieldId::kVy}));
  EXPECT_EQ(exchanges[1], (std::vector<FieldId>{FieldId::kRho}));
}

TEST(Schedule, LbExchangesAllPopulations) {
  const auto s = make_schedule<2>(Method::kLatticeBoltzmann);
  for (const Phase& p : s)
    if (p.kind == Phase::Kind::kExchange) {
      EXPECT_EQ(p.fields.size(), size_t(lbm2d::kQ));
      for (int i = 0; i < lbm2d::kQ; ++i)
        EXPECT_EQ(p.fields[i], population(i));
    }
}

TEST(Schedule, FirstPhaseIsComputeLastIsFilterBc) {
  for (Method m : {Method::kFiniteDifference, Method::kLatticeBoltzmann}) {
    const auto s = make_schedule<2>(m);
    ASSERT_FALSE(s.empty());
    EXPECT_EQ(s.front().kind, Phase::Kind::kCompute);
    EXPECT_EQ(s.back().kind, Phase::Kind::kCompute);
    EXPECT_EQ(s.back().compute, ComputeKind::kFilterAndBc);
  }
}

TEST(Schedule, PaperCommunicationVolumeTable) {
  // Section 6: in 2D both methods communicate 3 variables per boundary
  // node; in 3D, FD sends rho + 3 velocity components = 4, LB sends the 5
  // populations that cross a D3Q15 face.
  EXPECT_EQ(comm_doubles_per_node(Method::kFiniteDifference, 2), 3);
  EXPECT_EQ(comm_doubles_per_node(Method::kLatticeBoltzmann, 2), 3);
  EXPECT_EQ(comm_doubles_per_node(Method::kFiniteDifference, 3), 4);
  EXPECT_EQ(comm_doubles_per_node(Method::kLatticeBoltzmann, 3), 5);
}

TEST(Schedule, RequiredGhostMatchesFilterReach) {
  EXPECT_EQ(required_ghost(Method::kFiniteDifference, false), 1);
  EXPECT_EQ(required_ghost(Method::kLatticeBoltzmann, false), 1);
  EXPECT_EQ(required_ghost(Method::kFiniteDifference, true), 3);
  EXPECT_EQ(required_ghost(Method::kLatticeBoltzmann, true), 3);
}

}  // namespace
}  // namespace subsonic
