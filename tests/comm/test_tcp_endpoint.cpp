// TcpEndpoint, the one TCP path: two to five endpoints driven from
// threads of this process, each registered with one rendezvous::Server
// as the rank processes of a supervised cohort are.
#include "src/comm/tcp_endpoint.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/rendezvous.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/util/check.hpp"

namespace subsonic {
namespace {

using Endpoints = std::vector<std::unique_ptr<TcpEndpoint>>;

/// Ranks 0..n-1 of one cohort, registered with `server`.
Endpoints cohort(const rendezvous::Server& server, int n,
                 const TcpEndpointOptions& options = {}) {
  Endpoints eps;
  for (int r = 0; r < n; ++r)
    eps.push_back(
        std::make_unique<TcpEndpoint>(r, n, server.endpoint(), options));
  return eps;
}

long long elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(TcpEndpoint, RoundTripThroughRealSockets) {
  rendezvous::Server server;
  TcpEndpointOptions opt;
  opt.metrics = std::make_shared<telemetry::MetricsRegistry>();
  Endpoints eps = cohort(server, 2, opt);
  std::vector<double> got;
  std::thread receiver([&] { got = eps[1]->recv(0, make_tag(3, 1, 4)); });
  eps[0]->send(1, make_tag(3, 1, 4), {1.5, -2.5, 3.25});
  receiver.join();
  EXPECT_EQ(got, (std::vector<double>{1.5, -2.5, 3.25}));
  EXPECT_EQ(opt.metrics->counter(1, "transport.msgs_recv").value(), 1);
  EXPECT_EQ(opt.metrics->counter(1, "transport.doubles_recv").value(), 3);
}

TEST(TcpEndpoint, OutOfOrderTagsAreParkedAndRecovered) {
  rendezvous::Server server;
  Endpoints eps = cohort(server, 2);
  eps[0]->send(1, 20, {2.0});
  eps[0]->send(1, 10, {1.0});
  // Ask for the later-sent tag first: the earlier frame gets parked.
  EXPECT_EQ(eps[1]->recv(0, 10), (std::vector<double>{1.0}));
  EXPECT_EQ(eps[1]->recv(0, 20), (std::vector<double>{2.0}));
}

TEST(TcpEndpoint, BidirectionalPairUsesTwoChannels) {
  rendezvous::Server server;
  Endpoints eps = cohort(server, 2);
  std::thread a([&] {
    eps[0]->send(1, 1, {10.0});
    EXPECT_EQ(eps[0]->recv(1, 2), (std::vector<double>{20.0}));
  });
  std::thread b([&] {
    eps[1]->send(0, 2, {20.0});
    EXPECT_EQ(eps[1]->recv(0, 1), (std::vector<double>{10.0}));
  });
  a.join();
  b.join();
}

TEST(TcpEndpoint, ManyRanksAllToAll) {
  const int n = 5;
  rendezvous::Server server;
  Endpoints eps = cohort(server, n);
  std::vector<std::thread> threads;
  std::vector<double> sums(n, 0);
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      for (int peer = 0; peer < n; ++peer)
        if (peer != r) eps[r]->send(peer, 0, {double(r + 100)});
      for (int peer = 0; peer < n; ++peer)
        if (peer != r) sums[r] += eps[r]->recv(peer, 0)[0];
    });
  }
  for (auto& th : threads) th.join();
  const double all = n * (n - 1) / 2.0 + 100.0 * n;  // sum of every rank's value
  for (int r = 0; r < n; ++r) EXPECT_DOUBLE_EQ(sums[r], all - (r + 100));
}

TEST(TcpEndpoint, LargePayloadSurvivesFraming) {
  // 1.6 MB, past Linux's default socket buffers: the sender's writes
  // wait on POLLOUT while the reader drains them.
  rendezvous::Server server;
  Endpoints eps = cohort(server, 2);
  std::vector<double> big(200000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = double(i) * 0.5;
  std::vector<double> got;
  std::thread receiver([&] { got = eps[1]->recv(0, 9); });
  eps[0]->send(1, 9, big);
  receiver.join();
  EXPECT_EQ(got, big);
}

TEST(TcpEndpoint, PeerAtARefusedPortIsLostOnceTheConnectDeadlinePasses) {
  // Rank 1 is registered at a port nobody listens on: the backoff retries
  // must give up at the connect deadline with a peer_lost_error naming
  // both ranks instead of retrying forever (a dead peer can slow a rank
  // down, but never hang it in connect).
  rendezvous::Server server;
  TcpEndpointOptions opt;
  opt.connect_deadline_ms = 200;
  TcpEndpoint ep(0, 2, server.endpoint(), opt);

  // A freshly bound-then-closed listener leaves a loopback port that
  // refuses connections.
  int dead_port = 0;
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    dead_port = ntohs(addr.sin_port);
    ::close(fd);
  }
  rendezvous::Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.publish(0, 1, "127.0.0.1", dead_port));

  const auto t0 = std::chrono::steady_clock::now();
  ep.send(1, 0, {1.0});
  try {
    ep.flush();
    FAIL() << "flush() succeeded against a refused port";
  } catch (const peer_lost_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("rank 0"), std::string::npos) << message;
    EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
    EXPECT_NE(message.find("connect deadline"), std::string::npos) << message;
  }
  EXPECT_GE(elapsed_ms(t0), opt.connect_deadline_ms);
}

TEST(TcpEndpoint, HooklessRecvPastItsDeadlineIsPeerLost) {
  // No liveness hooks: the sliced waits still end at the recv deadline,
  // both while accepting a peer that never connects and while reading a
  // connected peer that goes quiet.
  rendezvous::Server server;
  TcpEndpointOptions opt;
  opt.recv_deadline_ms = 150;
  opt.metrics = std::make_shared<telemetry::MetricsRegistry>();
  Endpoints eps = cohort(server, 2, opt);

  auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(eps[0]->recv(1, 1), peer_lost_error);  // never connected
  EXPECT_GE(elapsed_ms(t0), opt.recv_deadline_ms);

  eps[1]->send(0, 2, {2.0});
  EXPECT_EQ(eps[0]->recv(1, 2), (std::vector<double>{2.0}));
  t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(eps[0]->recv(1, 3), peer_lost_error);  // connected, silent
  EXPECT_GE(elapsed_ms(t0), opt.recv_deadline_ms);
  EXPECT_EQ(opt.metrics->counter(0, "transport.deadline_expired").value(), 2);
}

TEST(TcpEndpoint, AFilePathRegistryIsRefusedAtConstruction) {
  const std::string path = ::testing::TempDir() + "/subsonic_ports_" +
                           std::to_string(::getpid());
  EXPECT_THROW(TcpEndpoint(0, 2, path), contract_error);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_THROW(TcpEndpoint(0, 2, "rdv:127.0.0.1"), contract_error);  // no port
}

}  // namespace
}  // namespace subsonic
