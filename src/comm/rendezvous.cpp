#include "src/comm/rendezvous.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "src/util/check.hpp"

namespace subsonic::rendezvous {

namespace {

constexpr const char* kScheme = "rdv:";

/// Longest request line the server accepts; anything longer is torn or
/// hostile input and closes the connection.
constexpr std::size_t kMaxLine = 256;

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Writes all of `data` (tiny protocol replies); false on any error.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line (the reply to a request); false on
/// EOF, error, or an over-long reply.
bool recv_line(int fd, std::string* line) {
  line->clear();
  char c = 0;
  while (line->size() < kMaxLine) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
  return false;
}

int connect_to(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  set_cloexec(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_aton(host.c_str(), &addr.sin_addr) == 0) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

bool parse_registry(const std::string& registry, Endpoint* out) {
  if (registry.rfind(kScheme, 0) != 0) return false;
  std::string rest = registry.substr(std::strlen(kScheme));
  int round = 0;
  // A trailing ".g<digits>" is the round suffix registry_for() appends.
  const auto g = rest.rfind(".g");
  if (g != std::string::npos) {
    const std::string digits = rest.substr(g + 2);
    if (!digits.empty() &&
        digits.find_first_not_of("0123456789") == std::string::npos) {
      // 9 digits always fit an int; anything longer is malformed, and
      // letting stoi throw out_of_range would break the bool contract.
      if (digits.size() > 9) return false;
      round = std::stoi(digits);
      rest = rest.substr(0, g);
    }
  }
  const auto colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size())
    return false;
  const std::string port_str = rest.substr(colon + 1);
  if (port_str.size() > 5 ||
      port_str.find_first_not_of("0123456789") != std::string::npos)
    return false;
  out->host = rest.substr(0, colon);
  out->port = std::stoi(port_str);
  out->round = round;
  return out->port > 0 && out->port <= 65535;
}

Server::Server() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  SUBSONIC_REQUIRE_MSG(listen_fd_ >= 0, "rendezvous: socket failed");
  set_cloexec(listen_fd_);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  SUBSONIC_REQUIRE_MSG(
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
      "rendezvous: bind failed");
  SUBSONIC_REQUIRE_MSG(::listen(listen_fd_, 64) == 0,
                       "rendezvous: listen failed");
  socklen_t len = sizeof addr;
  SUBSONIC_REQUIRE_MSG(
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "rendezvous: getsockname failed");
  port_ = ntohs(addr.sin_port);
  SUBSONIC_REQUIRE_MSG(::pipe(stop_pipe_) == 0, "rendezvous: pipe failed");
  set_cloexec(stop_pipe_[0]);
  set_cloexec(stop_pipe_[1]);
  thread_ = std::thread([this] { serve(); });
}

Server::~Server() {
  const char q = 'q';
  (void)!::write(stop_pipe_[1], &q, 1);
  if (thread_.joinable()) thread_.join();
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  ::close(listen_fd_);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, fd] : channels_) ::close(fd);
  channels_.clear();
}

std::string Server::endpoint() const {
  return std::string(kScheme) + "127.0.0.1:" + std::to_string(port_);
}

void Server::retire_rounds_below(int round) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.first < round)
      it = entries_.erase(it);
    else
      ++it;
  }
}

int Server::take_channel(const std::string& kind, int rank, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto key = std::make_pair(kind, rank);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    const auto it = channels_.find(key);
    if (it != channels_.end()) {
      const int fd = it->second;
      channels_.erase(it);
      return fd;
    }
    if (channel_cv_.wait_until(lock, deadline) ==
        std::cv_status::timeout) {
      const auto again = channels_.find(key);
      if (again != channels_.end()) {
        const int fd = again->second;
        channels_.erase(again);
        return fd;
      }
      return -1;
    }
  }
}

std::size_t Server::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void Server::serve() {
  std::vector<Conn> conns;
  while (true) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({stop_pipe_[0], POLLIN, 0});
    for (const Conn& c : conns) fds.push_back({c.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) break;
    // Only the connections that existed when `fds` was built have a
    // pollfd; a connection accepted below waits for the next round.
    const std::size_t polled = fds.size() - 2;
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        set_cloexec(fd);
        conns.push_back({fd, ""});
      }
    }
    // Walk connections back-to-front so removal does not shift the
    // pollfd indices still to be visited.
    for (std::size_t i = polled; i-- > 0;) {
      const short ev = fds[2 + i].revents;
      if (!(ev & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& conn = conns[i];
      char buf[256];
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      bool close_conn = false;
      bool adopted = false;
      if (n <= 0 && !(n < 0 && errno == EINTR)) {
        // EOF or error mid-line: drop the connection, keep the state.
        close_conn = true;
      } else if (n > 0) {
        conn.buf.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while (!adopted && !close_conn &&
               (nl = conn.buf.find('\n')) != std::string::npos) {
          const std::string line = conn.buf.substr(0, nl);
          conn.buf.erase(0, nl + 1);
          if (!handle_line(conn, line, &adopted)) close_conn = true;
        }
        if (!adopted && !close_conn && conn.buf.size() > kMaxLine)
          close_conn = true;  // torn or hostile input: no newline in sight
      }
      if (adopted) {
        conns.erase(conns.begin() + static_cast<long>(i));
      } else if (close_conn) {
        ::close(conn.fd);
        conns.erase(conns.begin() + static_cast<long>(i));
      }
    }
  }
  for (const Conn& c : conns) ::close(c.fd);
}

bool Server::handle_line(Conn& conn, const std::string& line, bool* adopted) {
  std::istringstream in(line);
  std::string verb;
  in >> verb;
  if (verb == "REG") {
    int round = -1, rank = -1, port = 0;
    std::string host;
    in >> round >> rank >> host >> port;
    if (in.fail() || round < 0 || rank < 0 || host.empty() || port <= 0)
      return false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      entries_[{round, rank}] = PeerAddr{host, port};  // newest wins
    }
    return send_all(conn.fd, "OK\n");
  }
  if (verb == "GET") {
    int round = -1, rank = -1;
    in >> round >> rank;
    if (in.fail() || round < 0 || rank < 0) return false;
    PeerAddr addr;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = entries_.find({round, rank});
      if (it != entries_.end()) {
        addr = it->second;
        found = true;
      }
    }
    return send_all(conn.fd, found ? "PORT " + addr.host + " " +
                                         std::to_string(addr.port) + "\n"
                                   : "NONE\n");
  }
  if (verb == "CHAN") {
    std::string kind;
    int rank = -1;
    in >> kind >> rank;
    if (in.fail() || (kind != "HB" && kind != "CTL") || rank < 0)
      return false;
    if (!send_all(conn.fd, "OK\n")) return false;
    set_nodelay(conn.fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto key = std::make_pair(kind, rank);
      const auto it = channels_.find(key);
      if (it != channels_.end()) {
        ::close(it->second);  // restarted rank re-dialed: newest wins
        it->second = conn.fd;
      } else {
        channels_.emplace(key, conn.fd);
      }
    }
    channel_cv_.notify_all();
    *adopted = true;
    return true;
  }
  return false;
}

Client::Client(std::string host, int port)
    : host_(std::move(host)), port_(port) {}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::request(const std::string& line, std::string* reply) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0) fd_ = connect_to(host_, port_);
    if (fd_ < 0) return false;
    if (send_all(fd_, line) && recv_line(fd_, reply)) return true;
    // The server dropped this connection (e.g. after a malformed line
    // from a previous incarnation): reconnect once and retry.
    ::close(fd_);
    fd_ = -1;
  }
  return false;
}

bool Client::publish(int round, int rank, const std::string& host, int port) {
  std::string reply;
  return request("REG " + std::to_string(round) + " " + std::to_string(rank) +
                     " " + host + " " + std::to_string(port) + "\n",
                 &reply) &&
         reply == "OK";
}

bool Client::lookup(int round, int rank, PeerAddr* out) {
  std::string reply;
  if (!request("GET " + std::to_string(round) + " " + std::to_string(rank) +
                   "\n",
               &reply))
    return false;
  std::istringstream in(reply);
  std::string verb;
  in >> verb;
  if (verb != "PORT") return false;
  in >> out->host >> out->port;
  return !in.fail() && out->port > 0;
}

int Client::connect_channel(const std::string& host, int port,
                            const std::string& kind, int rank) {
  const int fd = connect_to(host, port);
  if (fd < 0) return -1;
  std::string reply;
  if (!send_all(fd, "CHAN " + kind + " " + std::to_string(rank) + "\n") ||
      !recv_line(fd, &reply) || reply != "OK") {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

}  // namespace subsonic::rendezvous
