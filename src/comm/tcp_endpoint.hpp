// One rank's end of the paper's TCP/IP fabric (section 4.2).  A
// TcpEndpoint owns exactly one rank: it binds its own listening socket,
// appends "rank port" to the shared registry file under a lock, resolves
// peers by polling the same file, and opens channels with the hello
// handshake.  It is the only TCP implementation: each supervised process
// owns one, and TcpTransport hosts one per rank for the threaded runtime.
//
// Failure semantics (the robustness layer): connects retry with backoff
// while a slow peer is still coming up, sends are SIGPIPE-safe, and an
// optional recv deadline converts a dead neighbour into a peer_lost_error
// instead of an eternal block — so the supervising parent always gets a
// clean child exit to act on.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/transport.hpp"

namespace subsonic {

namespace rendezvous {
class Client;
}

namespace telemetry {
class Counter;
}

struct TcpEndpointOptions {
  /// Upper bound on any single recv() call, covering both the accept of a
  /// not-yet-connected peer and the reads of its frames.  0 blocks
  /// forever (the pre-supervisor behaviour).  On expiry recv throws
  /// peer_lost_error.
  int recv_deadline_ms = 0;

  /// Total budget for resolving a peer in the registry plus connecting to
  /// it, with exponential backoff between ECONNREFUSED retries.  On
  /// expiry the sender surfaces peer_lost_error.
  int connect_deadline_ms = 10000;

  /// Hard cap on connect() attempts to one peer; reaching it surfaces a
  /// peer_lost_error naming the peer and the attempt count even if the
  /// connect deadline has budget left.  <= 0 leaves the deadline as the
  /// only bound.
  int connect_attempt_cap = 1000;

  /// Optional wire telemetry: when set, the endpoint charges per-rank
  /// "transport.*" counters (messages/doubles sent and received, connect
  /// retries, deadline expiries, peer losses), the send-queue-depth gauge
  /// and the recv-wait timer into this registry.
  std::shared_ptr<telemetry::MetricsRegistry> metrics;

  /// Liveness hooks for the supervised runtime.  When either is set, every
  /// blocking wait (recv poll, accept, connect backoff, registry poll, and
  /// kernel send-buffer pressure) is sliced into wait_slice_ms chunks and
  /// the hooks are pumped between slices:
  ///   * wait_beacon() lets a child keep heartbeating while it is parked
  ///     in a long exchange wait, so the watchdog can tell "waiting on a
  ///     dead peer" from "hung";
  ///   * abort_requested() returning true makes the wait throw
  ///     endpoint_aborted, unwinding the step loop so the child can roll
  ///     back in-process on the supervisor's signal.
  /// Unset (the threaded runtime, plain tools), waits are single
  /// full-deadline polls — bit-for-bit the old behaviour.
  std::function<void()> wait_beacon;
  std::function<bool()> abort_requested;
  int wait_slice_ms = 50;
};

class TcpEndpoint {
 public:
  /// Binds a listener for `rank` and publishes its port.  A plain
  /// `registry_path` is a shared file (append mode + lock, so concurrent
  /// processes can register simultaneously); an
  /// "rdv:<host>:<port>[.g<round>]" path instead registers with — and
  /// resolves peers from — the supervisor's rendezvous service
  /// (src/comm/rendezvous.hpp), keeping run-critical coordination off the
  /// shared filesystem.
  TcpEndpoint(int rank, int ranks, std::string registry_path,
              TcpEndpointOptions options = {});
  ~TcpEndpoint();

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  int rank() const { return rank_; }
  /// The port this rank's listener is bound to.
  int port() const { return port_; }

  /// Replaces TcpEndpointOptions::metrics.  Attach before traffic starts.
  void attach_metrics(std::shared_ptr<telemetry::MetricsRegistry> registry) {
    options_.metrics = std::move(registry);
  }

  /// Queues a frame for `dst` and returns immediately; a background
  /// sender thread owns the outgoing connections (connecting on first
  /// use, which blocks *it* — not the caller — until the peer has
  /// published its port).  A connect/write failure surfaces on the next
  /// send() or flush().
  void send(int dst, MessageTag tag, std::vector<double> payload);

  /// Blocks until every queued frame is on the wire — including the one
  /// the sender thread is still connecting or writing — and rethrows the
  /// error of a send that failed.  Must be called before a process
  /// _exit()s: a peer may still be waiting on the final messages, and
  /// _exit would discard them.
  void flush();

  /// Blocks until the message (src -> this rank, tag) arrives; frames
  /// with other tags are parked.  With a recv deadline configured, throws
  /// peer_lost_error when the deadline passes without the message.
  std::vector<double> recv(int src, MessageTag tag);

 private:
  struct SendJob {
    int dst = -1;
    MessageTag tag = 0;
    std::vector<double> payload;
  };

  void pump_wait_hooks() const;
  void wait_io(int fd, short events, bool has_deadline,
               std::chrono::steady_clock::time_point deadline,
               const char* what, telemetry::Counter* expired);
  void send_bytes(int peer, int fd, const void* data, std::size_t len);
  void read_bytes(int fd, void* data, std::size_t len, bool has_deadline,
                  std::chrono::steady_clock::time_point deadline,
                  telemetry::Counter* expired);
  int lookup_port(int rank, std::string* host) const;
  int connect_to(int rank);
  void sender_loop();
  /// Nothing queued and nothing in flight (send_mutex_ held).
  bool drained() const { return send_queue_.empty() && in_flight_ == 0; }

  int rank_;
  int ranks_;
  std::string registry_path_;
  TcpEndpointOptions options_;
  // Set when registry_path_ is an "rdv:" endpoint; mutable because the
  // sender thread resolves peers through it from const lookup_port.
  mutable std::unique_ptr<rendezvous::Client> rdv_client_;
  int rdv_round_ = 0;
  int listen_fd_ = -1;
  int port_ = 0;
  std::map<int, int> in_fds_;
  std::map<int, int> out_fds_;  // sender thread only
  std::map<int, std::deque<std::pair<MessageTag, std::vector<double>>>>
      parked_;

  std::thread sender_;  // spawned lazily on first send
  std::mutex send_mutex_;
  std::condition_variable send_cv_;
  std::condition_variable drain_cv_;
  std::deque<SendJob> send_queue_;
  int in_flight_ = 0;  // jobs popped by the sender but not yet on the wire
  bool stop_ = false;
  std::exception_ptr send_error_;
};

}  // namespace subsonic
