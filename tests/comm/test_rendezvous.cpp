// The cohort rendezvous service: the supervisor-hosted TCP registry that
// replaced the ports.g<round> files.  These tests pin the edge cases the
// supervised runtime leans on: duplicate registration after a surgical
// restart (newest wins), round retirement, peer-fetch deadline expiry
// naming the missing rank, torn input on the rendezvous socket, and
// heartbeat/control channel adoption.
#include "src/comm/rendezvous.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/tcp_endpoint.hpp"
#include "src/comm/transport.hpp"

namespace subsonic {
namespace rendezvous {
namespace {

/// A raw loopback connection to the service, for driving the protocol
/// below the Client abstraction (torn lines, malformed requests).
int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void write_all(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
}

TEST(Rendezvous, ParsesRegistryStringsAndRejectsFilePaths) {
  Endpoint ep;
  ASSERT_TRUE(parse_registry("rdv:127.0.0.1:4100", &ep));
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 4100);
  EXPECT_EQ(ep.round, 0);

  // liveness::registry_for appends ".g<round>" unchanged; the parser must
  // take it back apart.
  ASSERT_TRUE(parse_registry("rdv:127.0.0.1:4100.g7", &ep));
  EXPECT_EQ(ep.port, 4100);
  EXPECT_EQ(ep.round, 7);

  EXPECT_FALSE(parse_registry("/tmp/ports", &ep));
  EXPECT_FALSE(parse_registry("/tmp/ports.g3", &ep));
  EXPECT_FALSE(parse_registry("rdv:127.0.0.1", &ep));      // no port
  EXPECT_FALSE(parse_registry("rdv::9", &ep));             // no host
  EXPECT_FALSE(parse_registry("rdv:h:abc", &ep));          // bad port
  EXPECT_FALSE(parse_registry("rdv:h:9.gx", &ep));         // bad round
}

TEST(Rendezvous, ParserRejectsOverlongNumbersInsteadOfThrowing) {
  // parse_registry's contract is bool, not exceptions: digit strings past
  // INT_MAX (a corrupt or hostile registry value) must return false, not
  // escape as std::out_of_range from stoi.
  Endpoint ep;
  EXPECT_FALSE(parse_registry("rdv:h:99999999999999999999", &ep));
  EXPECT_FALSE(parse_registry("rdv:h:9.g99999999999999999999", &ep));
  EXPECT_FALSE(parse_registry("rdv:h:70000", &ep));  // above 65535
  ASSERT_TRUE(parse_registry("rdv:h:65535.g999999999", &ep));
  EXPECT_EQ(ep.port, 65535);
  EXPECT_EQ(ep.round, 999999999);
}

TEST(Rendezvous, DuplicateRegistrationNewestWins) {
  // A surgically restarted rank re-registers the same (round, rank) with a
  // fresh ephemeral port; peers resolving it afterwards must get the new
  // address, not the corpse's.
  Server server;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.publish(0, 1, "127.0.0.1", 5001));
  ASSERT_TRUE(client.publish(0, 1, "127.0.0.1", 5002));  // restart, new port
  EXPECT_EQ(server.entry_count(), 1u);

  PeerAddr addr;
  ASSERT_TRUE(client.lookup(0, 1, &addr));
  EXPECT_EQ(addr.host, "127.0.0.1");
  EXPECT_EQ(addr.port, 5002);
}

TEST(Rendezvous, RetiringRoundsDropsOldGenerations) {
  // The protocol form of "remove the previous generation's registry
  // file": retire_rounds_below(g) before respawning generation g.
  Server server;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.publish(0, 0, "127.0.0.1", 4000));
  ASSERT_TRUE(client.publish(1, 0, "127.0.0.1", 4001));
  ASSERT_TRUE(client.publish(2, 0, "127.0.0.1", 4002));
  ASSERT_EQ(server.entry_count(), 3u);

  server.retire_rounds_below(2);
  EXPECT_EQ(server.entry_count(), 1u);
  PeerAddr addr;
  EXPECT_FALSE(client.lookup(0, 0, &addr));
  EXPECT_FALSE(client.lookup(1, 0, &addr));
  ASSERT_TRUE(client.lookup(2, 0, &addr));
  EXPECT_EQ(addr.port, 4002);
}

TEST(Rendezvous, PeerFetchDeadlineExpiryNamesTheMissingRank) {
  // Rank 0 sends to a rank 1 that never registers: the connect deadline
  // must convert the infinite poll into a peer_lost_error naming the
  // missing rank.
  Server server;
  TcpEndpointOptions opt;
  opt.connect_deadline_ms = 200;
  TcpEndpoint ep(0, 2, server.endpoint(), opt);
  ep.send(1, 0, {1.0, 2.0});
  try {
    ep.flush();
    FAIL() << "flush() succeeded with no peer registered";
  } catch (const peer_lost_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
        << e.what();
  }
}

TEST(Rendezvous, FlushWaitsForTheSendStillConnecting) {
  // By the time flush() runs, the sender thread has already taken the job
  // off the queue and is retrying the connect.  An empty queue is not a
  // drained endpoint: flush must wait for that job and rethrow its
  // failure instead of returning before the frame ever left.
  Server server;
  TcpEndpointOptions opt;
  opt.connect_deadline_ms = 300;
  TcpEndpoint ep(0, 2, server.endpoint(), opt);
  ep.send(1, 0, {1.0, 2.0});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  try {
    ep.flush();
    FAIL() << "flush() returned while the send to rank 1 was in flight";
  } catch (const peer_lost_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
        << e.what();
  }
}

TEST(Rendezvous, TornAndMalformedLinesLeaveTheServerServing) {
  Server server;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.publish(0, 0, "127.0.0.1", 4400));

  // A client that dies mid-line: the half-request must not register
  // anything or take the service down.
  {
    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    write_all(fd, "REG 0 1 127.0.0.1 44");  // no trailing newline
    ::close(fd);
  }
  // A complete-but-malformed line closes only that connection.
  {
    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    write_all(fd, "BOGUS request\n");
    char buf[16];
    EXPECT_EQ(::read(fd, buf, sizeof buf), 0);  // server closed it
    ::close(fd);
  }

  // The registry survives both: old state intact, new requests served.
  EXPECT_EQ(server.entry_count(), 1u);
  PeerAddr addr;
  ASSERT_TRUE(client.lookup(0, 0, &addr));
  EXPECT_EQ(addr.port, 4400);
  EXPECT_FALSE(client.lookup(0, 1, &addr));  // the torn REG never landed
}

TEST(Rendezvous, SurvivesConnectionChurnWhileServingEstablishedClients) {
  // Accepting a connection mid-round must not disturb the walk over the
  // connections that were actually polled (the new conn has no pollfd
  // yet).  Hammer the server with fresh connections while established
  // clients keep transacting: every request must still get its reply and
  // no register may be lost to a wedged serve loop.
  Server server;
  constexpr int kClients = 8;
  constexpr int kRequests = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < kRequests; ++r) {
        // A fresh connection per request maximises accept/walk overlap.
        Client client("127.0.0.1", server.port());
        if (!client.publish(0, c * kRequests + r, "127.0.0.1", 4000 + c))
          failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.entry_count(),
            static_cast<std::size_t>(kClients * kRequests));
  PeerAddr addr;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.lookup(0, 0, &addr));
  EXPECT_EQ(addr.port, 4000);
}

TEST(Rendezvous, ChannelAdoptionHandsTheConnectionToTheSupervisor) {
  // CHAN HB <rank>: the connection itself becomes the rank's heartbeat
  // channel — child writes, supervisor reads the adopted fd.
  Server server;
  const int child_fd = Client::connect_channel("127.0.0.1", server.port(),
                                               "HB", 3);
  ASSERT_GE(child_fd, 0);
  const int sup_fd = server.take_channel("HB", 3, 2000);
  ASSERT_GE(sup_fd, 0);

  const char ping[] = "beat";
  ASSERT_EQ(::write(child_fd, ping, sizeof ping),
            static_cast<ssize_t>(sizeof ping));
  char buf[8] = {};
  ASSERT_EQ(::read(sup_fd, buf, sizeof buf),
            static_cast<ssize_t>(sizeof ping));
  EXPECT_STREQ(buf, "beat");

  // Each (kind, rank) is handed out once; a second take times out fast.
  EXPECT_EQ(server.take_channel("HB", 3, 50), -1);
  ::close(child_fd);
  ::close(sup_fd);
}

}  // namespace
}  // namespace rendezvous
}  // namespace subsonic
