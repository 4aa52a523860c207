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
// tests (loopback UDP rarely drops on its own).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/transport.hpp"

namespace subsonic {

struct UdpOptions {
  /// Payload doubles per datagram fragment (stays well below 64 KiB).
  int fragment_doubles = 4096;
  /// Retransmit a fragment if unacknowledged for this long (seconds).
  double retransmit_timeout_s = 0.02;
  /// Testing hook: deterministically drop every Nth *first transmission*
  /// of a data fragment (0 = never).  Retransmissions are never dropped.
  int drop_every_n = 0;
};

class UdpTransport final : public Transport {
 public:
  /// Publishes every rank's port in the registry file at `registry_path`,
  /// which must not exist yet, as TcpTransport does.
  UdpTransport(int ranks, std::string registry_path, UdpOptions options = {});
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  void send(int src, int dst, MessageTag tag,
            std::vector<double> payload) override;
  std::vector<double> recv(int dst, int src, MessageTag tag) override;

  long messages_delivered() const override;
  long long doubles_delivered() const override;

  /// Diagnostics for the reliability machinery.
  long datagrams_sent() const;
  long retransmissions() const;
  long datagrams_dropped() const;

  /// Charges per-rank "transport.*" counters (messages/doubles, datagrams,
  /// retransmissions) and the recv-wait timer into `registry`.  Attach
  /// before traffic starts.
  void attach_metrics(
      std::shared_ptr<telemetry::MetricsRegistry> registry) override;

 private:
  struct RankState;

  void pump(int rank, double wait_s);
  void retransmit_stale(int rank);
  void transmit_fragment(int rank, const std::vector<char>& frame,
                         int dst_rank, bool first_time);
  void service_loop();

  int ranks_;
  std::string registry_path_;
  UdpOptions options_;
  std::vector<std::unique_ptr<RankState>> states_;
  mutable std::mutex stats_mutex_;
  long delivered_ = 0;
  long long doubles_delivered_ = 0;
  long datagrams_sent_ = 0;
  long retransmissions_ = 0;
  long drops_ = 0;
  long drop_counter_ = 0;
  std::atomic<bool> stop_{false};
  std::thread service_;
  std::shared_ptr<telemetry::MetricsRegistry> metrics_;
};

}  // namespace subsonic
