// A deliberately tiny HTTP/1.0-ish status server: one background thread,
// a poll() loop over the listening socket plus a self-pipe for shutdown,
// one connection served at a time, close after every response.  It
// exists to expose read-only supervisor state (GET /healthz, /status,
// /metrics) to curl, a Prometheus scraper, or subsonic_top — not to be a
// web server.  Binds 127.0.0.1 only: the introspection plane is local.
#pragma once

#include <functional>
#include <string>
#include <thread>

namespace subsonic {

class HttpStatusServer {
 public:
  /// Route handler: fill body/content_type for `path` and return true;
  /// false means 404.  Called on the server thread; must be thread-safe
  /// against whoever mutates the state it renders.
  using Handler = std::function<bool(const std::string& path,
                                     std::string* body,
                                     std::string* content_type)>;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; port() reports the result)
  /// and starts serving.  Throws std::invalid_argument for a port outside
  /// [0, 65535], before any socket opens, and std::runtime_error when the
  /// bind fails.
  HttpStatusServer(int port, Handler handler);
  ~HttpStatusServer();

  HttpStatusServer(const HttpStatusServer&) = delete;
  HttpStatusServer& operator=(const HttpStatusServer&) = delete;

  int port() const { return port_; }

 private:
  void serve();
  void handle_connection(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::thread thread_;
};

}  // namespace subsonic
