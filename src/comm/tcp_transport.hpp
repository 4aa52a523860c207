// Real TCP/IP transport over loopback sockets for the threaded runtime:
// one TcpEndpoint per rank behind the multi-rank Transport interface.
// Each endpoint follows the paper's design (section 4.2): it owns a
// listening socket, publishes its port in a shared registry file, and
// opens a channel on first use with the hello handshake ("I am listening
// at this port.  I want to talk to you...").  The threaded and the
// supervised process runtimes therefore share one implementation of the
// handshake, framing, tag demultiplexing and connect retries.
//
// In this transport the "processes" are threads of one process, but every
// byte still crosses the kernel's TCP stack.  send() is fire-and-forget:
// each endpoint queues frames to its own sender thread, so a worker that
// has posted its boundary can go straight back to computing — the
// transport half of hiding T_com.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/tcp_endpoint.hpp"
#include "src/comm/transport.hpp"

namespace subsonic {

class TcpTransport final : public Transport {
 public:
  /// `ranks` communicating peers; `registry_path` is the shared file where
  /// each rank publishes "rank port" once its listener is bound.  The file
  /// must not already exist (stale registries would pair with dead ports).
  TcpTransport(int ranks, std::string registry_path);
  /// Puts every queued frame on the wire before any endpoint closes, then
  /// removes the registry file.
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void send(int src, int dst, MessageTag tag,
            std::vector<double> payload) override;
  std::vector<double> recv(int dst, int src, MessageTag tag) override;

  long messages_delivered() const override { return delivered_.load(); }
  long long doubles_delivered() const override {
    return doubles_delivered_.load();
  }

  /// Each endpoint charges its rank's "transport.*" counters, the
  /// send-queue-depth gauge, connect retries and the recv-wait timer into
  /// `registry`.  Attach before traffic starts.
  void attach_metrics(
      std::shared_ptr<telemetry::MetricsRegistry> registry) override;

  /// The port rank listens on (for tests).
  int listen_port(int rank) const;

 private:
  std::string registry_path_;
  std::vector<std::unique_ptr<TcpEndpoint>> endpoints_;
  std::atomic<long> delivered_{0};
  std::atomic<long long> doubles_delivered_{0};
};

}  // namespace subsonic
