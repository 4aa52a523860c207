// Message transport between the ranks of one in-process run (paper
// section 4.2).  The paper uses TCP/IP sockets: reliable, ordered,
// first-in-first-out channels in each direction between each pair of
// processes.  BlockedDriver's ranks are threads of one process and trade
// frames through this interface; its implementations share one contract:
//   * InMemoryTransport — lock-and-condition queues between threads;
//   * UdpTransport      — appendix D's datagrams with user-space
//                         acknowledgement and retransmission.
// Supervised rank processes talk TCP instead, each through its own
// TcpEndpoint (tcp_endpoint.hpp).  Each message carries a tag encoding
// (step, phase, direction) so that a receiver can demultiplex the several
// messages a neighbour pair may have in flight (the paper's processes can
// be several steps apart — appendix A).  Traffic counts go to the
// "transport.*" counters of the registry a transport is attached to; a
// transport keeps none of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace subsonic {

namespace telemetry {
class MetricsRegistry;
}

/// Thrown when a peer of a point-to-point channel is gone: its socket
/// closed or reset mid-message, it never registered within the connect
/// deadline, or a recv deadline expired with nothing on the wire.  In the
/// process runtime a child converts this into a clean nonzero exit the
/// supervisor can act on — instead of blocking in recv forever.
class peer_lost_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown out of a blocking TcpEndpoint wait when the endpoint's
/// abort_requested callback fires — the supervised runtime's rollback
/// signal.  Deliberately NOT a peer_lost_error: a peer loss means "my
/// neighbour died, exit so the supervisor can act", while an abort means
/// "the supervisor already acted — unwind this round and roll back
/// in-process".  The child catches it above the step loop.
class endpoint_aborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Message identity within a channel.  Channels are FIFO, but a receiver
/// may wait for a specific tag while later-tagged messages queue behind.
using MessageTag = std::uint64_t;

/// Composes a tag from the integration step, the schedule phase index and
/// the direction index of the link the message travels along.  The block
/// runtime sends one frame per rank pair and exchange phase, tagged
/// make_tag(step, phase, 0): (step, phase) alone names a frame on its
/// rank-pair channel.
constexpr MessageTag make_tag(long step, int phase, int dir) {
  return (static_cast<MessageTag>(step) << 16) |
         (static_cast<MessageTag>(phase & 0x3FF) << 6) |
         static_cast<MessageTag>(dir & 0x3F);
}

class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueues `payload` from `src` to `dst`.  Never blocks indefinitely.
  virtual void send(int src, int dst, MessageTag tag,
                    std::vector<double> payload) = 0;

  /// Blocks until the message (src -> dst, tag) is available and returns
  /// its payload.  Messages with other tags stay queued.
  virtual std::vector<double> recv(int dst, int src, MessageTag tag) = 0;

  /// Opt-in wire telemetry: implementations that support it charge
  /// "transport.*" counters/timers (messages and doubles sent/received,
  /// recv wait) into `registry`, keyed by rank.  The base implementation
  /// ignores the registry, so transports stay usable without telemetry.
  /// Attach before traffic starts; the transport keeps the registry alive
  /// via the shared_ptr.
  virtual void attach_metrics(
      std::shared_ptr<telemetry::MetricsRegistry> registry) {
    (void)registry;
  }
};

}  // namespace subsonic
