#include "src/comm/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "src/telemetry/metrics.hpp"

namespace subsonic {
namespace {

/// A transport with a registry attached, the only carrier of its counts.
struct Metered {
  explicit Metered(int ranks, UdpOptions opt = {}) : t(ranks, opt) {
    t.attach_metrics(metrics);
  }
  /// `name` summed over every rank.
  long long total(const std::string& name) const {
    long long sum = 0;
    for (const auto& row : metrics->counters())
      if (row.name == name) sum += row.value;
    return sum;
  }
  std::shared_ptr<telemetry::MetricsRegistry> metrics =
      std::make_shared<telemetry::MetricsRegistry>();
  UdpTransport t;
};

TEST(UdpTransport, RoundTripSingleFragment) {
  Metered m(2);
  UdpTransport& t = m.t;
  std::vector<double> got;
  std::thread receiver([&] { got = t.recv(1, 0, make_tag(1, 0, 3)); });
  t.send(0, 1, make_tag(1, 0, 3), {1.0, 2.0, 3.0});
  receiver.join();
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(m.total("transport.msgs_recv"), 1);
  EXPECT_EQ(m.total("transport.retransmissions"), 0);
}

TEST(UdpTransport, EmptyPayload) {
  UdpTransport t(2);
  std::thread receiver([&] { EXPECT_TRUE(t.recv(1, 0, 7).empty()); });
  t.send(0, 1, 7, {});
  receiver.join();
}

TEST(UdpTransport, LargePayloadIsFragmentedAndReassembled) {
  Metered m(2);
  UdpTransport& t = m.t;
  std::vector<double> big(50000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = 0.25 * double(i);
  std::vector<double> got;
  std::thread receiver([&] { got = t.recv(1, 0, 11); });
  t.send(0, 1, 11, big);
  receiver.join();
  EXPECT_EQ(got, big);
  // 50000 doubles over 4096-double fragments -> 13 data datagrams.
  EXPECT_GE(m.total("transport.datagrams_sent"), 13);
}

TEST(UdpTransport, RecoversFromDroppedDatagrams) {
  // Appendix D's "considerable effort": with every 3rd first transmission
  // deliberately lost, retransmission must still deliver everything.
  UdpOptions opt;
  opt.drop_every_n = 3;
  opt.retransmit_timeout_s = 0.005;
  Metered m(2, opt);
  UdpTransport& t = m.t;
  std::vector<double> payload(20000);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = double(i) - 7.5;
  std::vector<double> got;
  std::thread receiver([&] { got = t.recv(1, 0, 21); });
  // Keep the sender pumping so its retransmissions go out.
  std::thread sender([&] {
    t.send(0, 1, 21, payload);
    // The sender must service ACKs/retransmits until delivery completes;
    // in the real runtime this happens in its next recv().  Emulate by
    // receiving a reply.
    t.recv(0, 1, 22);
  });
  receiver.join();
  t.send(1, 0, 22, {1.0});
  sender.join();
  EXPECT_EQ(got, payload);
  EXPECT_GT(m.total("transport.datagrams_dropped"), 0);
  EXPECT_GT(m.total("transport.retransmissions"), 0);
}

TEST(UdpTransport, TagsDemultiplex) {
  UdpTransport t(2);
  t.send(0, 1, 100, {1.0});
  t.send(0, 1, 200, {2.0});
  std::vector<double> a, b;
  std::thread receiver([&] {
    b = t.recv(1, 0, 200);
    a = t.recv(1, 0, 100);
  });
  receiver.join();
  EXPECT_EQ(a, (std::vector<double>{1.0}));
  EXPECT_EQ(b, (std::vector<double>{2.0}));
}

TEST(UdpTransport, AllToAll) {
  const int n = 4;
  UdpTransport t(n);
  std::vector<std::thread> threads;
  std::vector<double> sums(n, 0);
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      for (int peer = 0; peer < n; ++peer)
        if (peer != r) t.send(r, peer, 5, {double(r)});
      for (int peer = 0; peer < n; ++peer)
        if (peer != r) sums[r] += t.recv(r, peer, 5)[0];
    });
  }
  for (auto& th : threads) th.join();
  for (int r = 0; r < n; ++r)
    EXPECT_DOUBLE_EQ(sums[r], n * (n - 1) / 2.0 - r);
}

/// The datagram header, field for field as udp_transport.cpp lays it out.
struct Header {
  std::uint32_t kind;  // 1 data, 2 ack
  std::int32_t src;
  std::int32_t dst;
  std::uint64_t tag;
  std::uint32_t frag_index;
  std::uint32_t frag_count;
  std::uint64_t total_doubles;
};

/// `h` followed by `payload` bytes, each double of them set to `fill`.
std::vector<char> datagram(const Header& h, std::size_t payload_bytes,
                           double fill = 0.0) {
  std::vector<char> bytes(sizeof h + payload_bytes);
  std::memcpy(bytes.data(), &h, sizeof h);
  for (std::size_t off = 0; off + sizeof fill <= payload_bytes;
       off += sizeof fill)
    std::memcpy(bytes.data() + sizeof h + off, &fill, sizeof fill);
  return bytes;
}

/// Sends `bytes` as one datagram to a loopback `port` from a fresh socket.
void send_datagram(int port, const std::vector<char>& bytes) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::sendto(fd, bytes.data(), bytes.size(), 0,
                     reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

TEST(UdpTransport, MalformedDatagramsAreRejectedAndDeliveryGoesOn) {
  // Anyone can reach a rank's port.  Each datagram below is dropped
  // unacknowledged and counted, never indexed by or thrown out of recv:
  // the rank then still reassembles a message of its own.
  Metered m(2);
  UdpTransport& t = m.t;
  const int port = t.port(1);
  constexpr std::size_t kD = sizeof(double);
  const std::vector<std::vector<char>> bad = {
      std::vector<char>(5, 'x'),                                // short
      datagram({7, 0, 1, 900, 0, 1, 1}, kD),                    // kind
      datagram({1, 0, 0, 901, 0, 1, 1}, kD),                    // foreign dst
      datagram({1, 2, 1, 902, 0, 1, 1}, kD),                    // src = ranks
      datagram({1, -1, 1, 902, 0, 1, 1}, kD),                   // src < 0
      datagram({2, 5, 1, 902, 0, 0, 0}, 0),                     // ack, src
      datagram({1, 0, 1, 903, 1, 1, 1}, kD),                    // index
      datagram({1, 0, 1, 904, 0, 2, 1}, kD),                    // count
      datagram({1, 0, 1, 905, 0, 1, 3}, 2 * kD),                // short load
      datagram({1, 0, 1, 905, 0, 1, 1}, kD + 3),                // ragged
      datagram({1, 0, 1, 905, 0, 1, 1}, 4097 * kD),             // too long
  };
  for (const auto& d : bad) send_datagram(port, d);
  // The first fragment of a two-fragment message is accepted; a third
  // fragment of a longer message under the same (src, tag) disagrees with
  // it and would index past its reassembly buffer.
  send_datagram(port, datagram({1, 0, 1, 906, 0, 2, 5000}, 4096 * kD));
  send_datagram(port, datagram({1, 0, 1, 906, 2, 3, 9000}, 808 * kD));
  const long long rejected = static_cast<long long>(bad.size()) + 1;

  // A well-formed hand-made message shows the header above is laid out
  // as the transport reads it.
  send_datagram(port, datagram({1, 0, 1, 907, 0, 1, 2}, 2 * kD, 4.5));
  EXPECT_EQ(t.recv(1, 0, 907), (std::vector<double>{4.5, 4.5}));

  std::vector<double> payload(9000);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = 1.0 / double(i + 1);
  std::vector<double> got;
  std::thread receiver([&] { got = t.recv(1, 0, 908); });
  t.send(0, 1, 908, payload);
  receiver.join();
  EXPECT_EQ(got, payload);
  EXPECT_EQ(m.metrics->counter(1, "transport.datagrams_rejected").value(),
            rejected);
  EXPECT_EQ(m.metrics->counter(0, "transport.datagrams_rejected").value(), 0);
}

}  // namespace
}  // namespace subsonic
