// The cohort rendezvous service: a tiny supervisor-hosted TCP registry
// that carries all the run-critical rank-to-rank coordination of the
// supervised runtime — the paper's port handshake (section 4.2) without
// a shared port file.  Every TcpEndpoint registers and resolves peers
// here; BlockedDriver::run_until_sync still announces through the
// appendix-B SyncFile.
//
// The supervisor runs one Server per job.  Each child, after binding its
// ephemeral data port, registers (round, rank, host, port) and then polls
// for its peers; every registration carries its recovery round, and the
// supervisor retires older rounds server-side at each surgical restart.
// The same service hands out the heartbeat/control channels for
// launchers whose children share no file descriptors with the
// supervisor: a child dials in, says CHAN HB <rank> (or CHAN CTL <rank>),
// and the connection itself is adopted as that rank's channel.
//
// Line protocol (one request per line, '\n'-terminated ASCII):
//
//   REG <round> <rank> <host> <port>   -> OK
//   GET <round> <rank>                 -> PORT <host> <port>  |  NONE
//   CHAN HB|CTL <rank>                 -> OK   (connection is adopted)
//
// A duplicate REG for the same (round, rank) overwrites — newest wins,
// which is exactly what a surgically restarted rank needs.  Torn input is
// contained: bytes buffer until a newline, an over-long or malformed line
// closes only that connection, and a client that disappears mid-line is
// simply dropped — the registry state and every other connection survive.
//
// A registry string names this service as "rdv:<host>:<port>[.g<round>]";
// TcpEndpoint refuses any other string.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace subsonic::rendezvous {

/// A parsed "rdv:<host>:<port>[.g<round>]" registry string.
struct Endpoint {
  std::string host;
  int port = 0;
  int round = 0;
};

/// Parses "rdv:<host>:<port>[.g<round>]"; returns false for any other
/// string, a file path or a malformed rdv string alike.
bool parse_registry(const std::string& registry, Endpoint* out);

/// One peer's published address.
struct PeerAddr {
  std::string host;
  int port = 0;
};

class Server {
 public:
  /// Binds 127.0.0.1 on an ephemeral port (close-on-exec, so launched
  /// children never inherit the listener) and starts the service thread.
  Server();
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return port_; }

  /// The registry base string children use: "rdv:127.0.0.1:<port>".
  /// registry_for(endpoint(), round) appends ".g<round>" unchanged.
  std::string endpoint() const;

  /// Drops every registration with round < `round`, so a rank of a new
  /// round never finds a listener of an older one.
  void retire_rounds_below(int round);

  /// Blocks until a child has dialed in a channel of `kind` ("HB" or
  /// "CTL") for `rank` and returns the adopted connection fd (caller
  /// owns it), or -1 after `timeout_ms`.
  int take_channel(const std::string& kind, int rank, int timeout_ms);

  /// Registration count, for tests.
  std::size_t entry_count() const;

 private:
  struct Conn {
    int fd = -1;
    std::string buf;
  };

  void serve();
  /// Handles one complete request line; returns false when the
  /// connection must be closed (malformed input), and sets *adopted
  /// when the connection was handed off as a channel.
  bool handle_line(Conn& conn, const std::string& line, bool* adopted);

  int listen_fd_ = -1;
  int port_ = 0;
  int stop_pipe_[2] = {-1, -1};
  std::thread thread_;

  mutable std::mutex mu_;
  std::condition_variable channel_cv_;
  std::map<std::pair<int, int>, PeerAddr> entries_;         // (round, rank)
  std::map<std::pair<std::string, int>, int> channels_;     // (kind, rank)
};

/// A client connection to a Server, usable for repeated requests (it
/// reconnects transparently if the supervisor end was closed).  Used by
/// TcpEndpoint for REG/GET and by tests; channel adoption goes through
/// the static connect_channel, which hands the socket itself back.
class Client {
 public:
  Client(std::string host, int port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// REG; returns false when the service is unreachable or refused.
  bool publish(int round, int rank, const std::string& host, int port);

  /// One GET probe; true with *out filled when the peer is registered,
  /// false on NONE or any transport error (callers poll under their own
  /// deadline).
  bool lookup(int round, int rank, PeerAddr* out);

  /// Dials a heartbeat/control channel: connects, sends CHAN, waits for
  /// OK, and returns the connected socket fd (caller owns it), or -1.
  static int connect_channel(const std::string& host, int port,
                             const std::string& kind, int rank);

 private:
  bool request(const std::string& line, std::string* reply);

  std::string host_;
  int port_ = 0;
  int fd_ = -1;
  std::mutex mu_;
};

}  // namespace subsonic::rendezvous
