#include "src/comm/http_status.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace subsonic {

namespace {

void write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // client went away: nothing to salvage
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

HttpStatusServer::HttpStatusServer(int port, Handler handler)
    : handler_(std::move(handler)) {
  if (port < 0 || port > 65535)
    throw std::invalid_argument("status server: port " +
                                std::to_string(port) +
                                " is outside [0, 65535]");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("status server: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error(std::string("status server: cannot listen on "
                                         "127.0.0.1:") +
                             std::to_string(port) + ": " +
                             std::strerror(err));
  }
  sockaddr_in bound = {};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);
  if (::pipe(stop_pipe_) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("status server: pipe() failed");
  }
  thread_ = std::thread(&HttpStatusServer::serve, this);
}

HttpStatusServer::~HttpStatusServer() {
  const char byte = 'q';
  write_all(stop_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  ::close(listen_fd_);
}

void HttpStatusServer::serve() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents) return;  // shutdown
    if (!(fds[0].revents & POLLIN)) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    handle_connection(conn);
    ::close(conn);
  }
}

void HttpStatusServer::handle_connection(int fd) {
  // A request is one GET line plus headers we ignore; 2 s is plenty on
  // loopback and bounds how long a stuck client can hold the serve loop.
  timeval tv = {2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::string req;
  char buf[1024];
  while (req.find("\r\n") == std::string::npos && req.size() < 8192) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t eol = req.find("\r\n");
  if (eol == std::string::npos) return;
  const std::string line = req.substr(0, eol);

  std::string status = "405 Method Not Allowed";
  std::string body = "method not allowed\n";
  std::string content_type = "text/plain; charset=utf-8";
  if (line.compare(0, 4, "GET ") == 0) {
    const std::size_t sp = line.find(' ', 4);
    std::string path = line.substr(4, sp == std::string::npos ? std::string::npos
                                                              : sp - 4);
    const std::size_t q = path.find('?');
    if (q != std::string::npos) path.erase(q);
    if (handler_ && handler_(path, &body, &content_type)) {
      status = "200 OK";
    } else {
      status = "404 Not Found";
      body = "not found\n";
      content_type = "text/plain; charset=utf-8";
    }
  }
  std::string resp = "HTTP/1.1 " + status +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n" + body;
  write_all(fd, resp.data(), resp.size());
  ::shutdown(fd, SHUT_WR);
  // Drain whatever the client still had in flight so the close is clean.
  while (::read(fd, buf, sizeof buf) > 0) {
  }
}

}  // namespace subsonic
