// UDP/IP datagram transport (paper appendix D).  "The UDP/IP protocol is
// similar to TCP/IP with one major difference: there is no guaranteed
// delivery of messages.  Thus, the distributed program must check that
// messages are delivered, and resend messages if necessary, which is a
// considerable effort.  However, the benefit is that the distributed
// program has more control of the communication."
//
// This implementation supplies that considerable effort: payloads are
// fragmented into datagrams below the UDP size limit, every fragment is
// acknowledged, and unacknowledged fragments are retransmitted after a
// timeout.  A deterministic drop injector exercises the recovery path in
// tests (loopback UDP rarely drops on its own).  The transport owns every
// rank's socket, so it takes a peer's address from its own rank table; a
// datagram that is malformed or not addressed to the rank reading it is
// dropped unacknowledged.  Datagram, retransmission, drop and rejection
// counts go to the "transport.*" counters of the attached registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/comm/transport.hpp"

namespace subsonic {

struct UdpOptions {
  /// Retransmit a fragment if unacknowledged for this long (seconds).
  double retransmit_timeout_s = 0.02;
  /// Testing hook: deterministically drop every Nth *first transmission*
  /// of a data fragment (0 = never).  Retransmissions are never dropped.
  int drop_every_n = 0;
};

class UdpTransport final : public Transport {
 public:
  /// Binds one loopback datagram socket per rank.
  explicit UdpTransport(int ranks, UdpOptions options = {});
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  void send(int src, int dst, MessageTag tag,
            std::vector<double> payload) override;
  std::vector<double> recv(int dst, int src, MessageTag tag) override;

  /// Charges per-rank "transport.*" counters (messages/doubles,
  /// datagrams sent, dropped and rejected, retransmissions) and the
  /// recv-wait timer into `registry`.  Attach before traffic starts.
  void attach_metrics(
      std::shared_ptr<telemetry::MetricsRegistry> registry) override;

  /// The loopback port `rank`'s socket is bound to.
  int port(int rank) const;

 private:
  struct RankState;

  void pump(int rank, double wait_s);
  void retransmit_stale(int rank);
  void transmit_fragment(int rank, const std::vector<char>& frame,
                         int dst_rank, bool first_time);
  void count(int rank, const char* name, long long n = 1);
  void service_loop();

  int ranks_;
  UdpOptions options_;
  std::vector<std::unique_ptr<RankState>> states_;
  std::atomic<long> drop_counter_{0};
  std::atomic<bool> stop_{false};
  std::thread service_;
  std::shared_ptr<telemetry::MetricsRegistry> metrics_;
};

}  // namespace subsonic
