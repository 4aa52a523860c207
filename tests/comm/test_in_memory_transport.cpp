#include "src/comm/in_memory_transport.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/telemetry/metrics.hpp"
#include "src/util/check.hpp"

namespace subsonic {
namespace {

TEST(InMemoryTransport, RoundTrip) {
  InMemoryTransport t(2);
  auto metrics = std::make_shared<telemetry::MetricsRegistry>();
  t.attach_metrics(metrics);
  t.send(0, 1, make_tag(0, 0, 5), {1.0, 2.0, 3.0});
  const auto payload = t.recv(1, 0, make_tag(0, 0, 5));
  EXPECT_EQ(payload, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(metrics->counter(1, "transport.msgs_recv").value(), 1);
  EXPECT_EQ(metrics->counter(1, "transport.doubles_recv").value(), 3);
}

TEST(InMemoryTransport, ChannelsAreIndependentPerDirection) {
  InMemoryTransport t(2);
  t.send(0, 1, 7, {1.0});
  t.send(1, 0, 7, {2.0});
  EXPECT_EQ(t.recv(0, 1, 7), (std::vector<double>{2.0}));
  EXPECT_EQ(t.recv(1, 0, 7), (std::vector<double>{1.0}));
}

TEST(InMemoryTransport, TagSelectsAmongQueuedMessages) {
  InMemoryTransport t(2);
  t.send(0, 1, 10, {1.0});
  t.send(0, 1, 11, {2.0});
  t.send(0, 1, 12, {3.0});
  EXPECT_EQ(t.recv(1, 0, 12), (std::vector<double>{3.0}));
  EXPECT_EQ(t.recv(1, 0, 10), (std::vector<double>{1.0}));
  EXPECT_EQ(t.recv(1, 0, 11), (std::vector<double>{2.0}));
}

TEST(InMemoryTransport, FifoWithinEqualTags) {
  InMemoryTransport t(2);
  t.send(0, 1, 5, {1.0});
  t.send(0, 1, 5, {2.0});
  EXPECT_EQ(t.recv(1, 0, 5), (std::vector<double>{1.0}));
  EXPECT_EQ(t.recv(1, 0, 5), (std::vector<double>{2.0}));
}

TEST(InMemoryTransport, SelfSendIsAllowed) {
  InMemoryTransport t(1);
  t.send(0, 0, 3, {9.0});
  EXPECT_EQ(t.recv(0, 0, 3), (std::vector<double>{9.0}));
}

TEST(InMemoryTransport, RecvBlocksUntilSendArrives) {
  InMemoryTransport t(2);
  std::vector<double> got;
  std::thread receiver([&] { got = t.recv(1, 0, 42); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.send(0, 1, 42, {4.5});
  receiver.join();
  EXPECT_EQ(got, (std::vector<double>{4.5}));
}

TEST(InMemoryTransport, EmptyPayloadIsDelivered) {
  InMemoryTransport t(2);
  t.send(0, 1, 1, {});
  EXPECT_TRUE(t.recv(1, 0, 1).empty());
}

TEST(InMemoryTransport, ManyThreadsManyMessages) {
  const int n = 8;
  InMemoryTransport t(n);
  std::vector<std::thread> threads;
  // Every rank sends its id to every other rank, then sums what it gets.
  std::vector<double> sums(n, 0);
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      for (int peer = 0; peer < n; ++peer)
        if (peer != r) t.send(r, peer, 0, {double(r)});
      for (int peer = 0; peer < n; ++peer)
        if (peer != r) sums[r] += t.recv(r, peer, 0)[0];
    });
  }
  for (auto& th : threads) th.join();
  const double all = n * (n - 1) / 2.0;
  for (int r = 0; r < n; ++r) EXPECT_DOUBLE_EQ(sums[r], all - r);
}

TEST(InMemoryTransport, RejectsOutOfRangeRanks) {
  InMemoryTransport t(2);
  EXPECT_THROW(t.send(0, 2, 0, {}), contract_error);
  EXPECT_THROW(t.send(-1, 0, 0, {}), contract_error);
}

}  // namespace
}  // namespace subsonic
