// One rank's end of the paper's TCP/IP fabric (section 4.2).  A
// TcpEndpoint owns exactly one rank: it binds its own listening socket,
// registers "rank port" with the supervisor's rendezvous service
// (src/comm/rendezvous.hpp), resolves its peers through the same
// service, and opens channels with the hello handshake.  Each supervised
// rank process owns one.
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

#include "src/comm/rendezvous.hpp"
#include "src/comm/transport.hpp"

namespace subsonic {

namespace telemetry {
class Counter;
}

struct TcpEndpointOptions {
  /// Upper bound on any single recv() call, covering both the accept of a
  /// not-yet-connected peer and the reads of its frames.  0 blocks
  /// forever.  On expiry recv throws peer_lost_error.
  int recv_deadline_ms = 0;

  /// Total budget for resolving a peer in the registry plus connecting to
  /// it, with exponential backoff between ECONNREFUSED retries.  On
  /// expiry the sender surfaces peer_lost_error.
  int connect_deadline_ms = 10000;

  /// Optional wire telemetry: when set, the endpoint charges per-rank
  /// "transport.*" counters (messages/doubles sent and received, connect
  /// retries, deadline expiries, peer losses), the send-queue-depth gauge
  /// and the recv-wait timer into this registry.
  std::shared_ptr<telemetry::MetricsRegistry> metrics;

  /// Every blocking wait (recv poll, accept, connect backoff, registry
  /// poll, and kernel send-buffer pressure) polls in wait_slice_ms
  /// slices, and the liveness hooks that are set are pumped between
  /// slices:
  ///   * wait_beacon() lets a child keep heartbeating while it is parked
  ///     in a long exchange wait, so the watchdog can tell "waiting on a
  ///     dead peer" from "hung";
  ///   * abort_requested() returning true makes the wait throw
  ///     endpoint_aborted, unwinding the step loop so the child can roll
  ///     back in-process on the supervisor's signal.
  std::function<void()> wait_beacon;
  std::function<bool()> abort_requested;
  int wait_slice_ms = 50;
};

class TcpEndpoint {
 public:
  /// Binds a listener for `rank` and registers its port with the
  /// rendezvous service `registry` names ("rdv:<host>:<port>[.g<round>]",
  /// see rendezvous::parse_registry); peers are resolved from the same
  /// service and round.  Any other string is a contract_error.
  TcpEndpoint(int rank, int ranks, const std::string& registry,
              TcpEndpointOptions options = {});
  ~TcpEndpoint();

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

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
  int lookup_port(int rank, std::string* host);
  int connect_to(int rank);
  void sender_loop();
  /// Nothing queued and nothing in flight (send_mutex_ held).
  bool drained() const { return send_queue_.empty() && in_flight_ == 0; }

  int rank_;
  int ranks_;
  TcpEndpointOptions options_;
  rendezvous::Endpoint rdv_;
  // The sender thread resolves peers through it; the constructor
  // registers through it before that thread exists.
  rendezvous::Client rdv_client_;
  int listen_fd_ = -1;
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
