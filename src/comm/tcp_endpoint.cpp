#include "src/comm/tcp_endpoint.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "src/telemetry/metrics.hpp"
#include "src/util/check.hpp"
#include "src/util/stopwatch.hpp"

namespace subsonic {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// Milliseconds until `deadline`, clamped at 0; -1 when no deadline is set
/// (poll's "wait forever").
int remaining_ms(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

struct WireHeader {
  std::uint64_t tag;
  std::uint64_t count;
  std::int32_t src;
  std::int32_t dst;
};

rendezvous::Endpoint parse_rendezvous(const std::string& registry) {
  rendezvous::Endpoint rdv;
  SUBSONIC_REQUIRE_MSG(rendezvous::parse_registry(registry, &rdv),
                       "not a rendezvous registry: \"" + registry + "\"");
  return rdv;
}

}  // namespace

void TcpEndpoint::pump_wait_hooks() const {
  if (options_.wait_beacon) options_.wait_beacon();
  if (options_.abort_requested && options_.abort_requested())
    throw endpoint_aborted("endpoint wait aborted by rollback request");
}

/// Blocks until `fd` matches `events` (POLLIN/POLLOUT) or the deadline
/// passes; throws peer_lost_error on expiry (charging `expired` when
/// provided).  The wait polls in wait_slice_ms slices and pumps the
/// liveness hooks between them.
void TcpEndpoint::wait_io(int fd, short events, bool has_deadline,
                          Clock::time_point deadline, const char* what,
                          telemetry::Counter* expired) {
  const int slice = std::max(1, options_.wait_slice_ms);
  for (;;) {
    pump_wait_hooks();
    pollfd p{fd, events, 0};
    const int left = remaining_ms(has_deadline, deadline);
    const int n = ::poll(&p, 1, left < 0 ? slice : std::min(left, slice));
    if (n > 0) return;  // ready, closed, or errored: read()/send() resolves it
    if (n == 0) {
      if (!has_deadline || Clock::now() < deadline) continue;
      if (expired) expired->add();
      throw peer_lost_error(std::string(what) +
                            ": recv deadline expired — peer presumed lost");
    }
    if (errno != EINTR) throw_errno("poll");
  }
}

/// SIGPIPE-safe socket write: a dead peer yields peer_lost_error on this
/// thread instead of a process-killing signal.  The write is non-blocking
/// and POLLOUT-waited, so kernel send-buffer pressure from a hung peer
/// cannot wedge the sender past a rollback request.
void TcpEndpoint::send_bytes(int peer, int fd, const void* data,
                             std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_io(fd, POLLOUT, false, Clock::time_point{}, "send", nullptr);
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET)
        throw peer_lost_error("peer " + std::to_string(peer) +
                              " closed TCP channel mid-send");
      throw_errno("send");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
}

void TcpEndpoint::read_bytes(int fd, void* data, std::size_t len,
                             bool has_deadline, Clock::time_point deadline,
                             telemetry::Counter* expired) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    wait_io(fd, POLLIN, has_deadline, deadline, "read", expired);
    const ssize_t n = ::read(fd, p, len);
    if (n == 0) throw peer_lost_error("peer closed TCP channel");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == ECONNRESET)
        throw peer_lost_error("peer reset TCP channel");
      throw_errno("read");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
}

TcpEndpoint::TcpEndpoint(int rank, int ranks, const std::string& registry,
                         TcpEndpointOptions options)
    : rank_(rank),
      ranks_(ranks),
      options_(std::move(options)),
      rdv_(parse_rendezvous(registry)),
      rdv_client_(rdv_.host, rdv_.port) {
  SUBSONIC_REQUIRE(rank >= 0 && rank < ranks);
  SUBSONIC_REQUIRE(options_.recv_deadline_ms >= 0);
  SUBSONIC_REQUIRE(options_.connect_deadline_ms > 0);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0)
    throw_errno("bind");
  if (::listen(listen_fd_, ranks) < 0) throw_errno("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0)
    throw_errno("getsockname");
  if (!rdv_client_.publish(rdv_.round, rank_, "127.0.0.1",
                           ntohs(addr.sin_port)))
    throw std::runtime_error("rendezvous registration failed for rank " +
                             std::to_string(rank_) + " at " + registry);
}

TcpEndpoint::~TcpEndpoint() {
  {
    std::unique_lock<std::mutex> lock(send_mutex_);
    // A send error empties the queue, so this also returns promptly on a
    // wedged channel instead of waiting for frames that can never leave.
    drain_cv_.wait(lock, [&] { return drained(); });
    stop_ = true;
  }
  send_cv_.notify_all();
  if (sender_.joinable()) sender_.join();
  for (auto& [peer, fd] : in_fds_) ::close(fd);
  for (auto& [peer, fd] : out_fds_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

int TcpEndpoint::lookup_port(int rank, std::string* host) {
  // Peers may not have registered yet; probe the rendezvous service until
  // the connect deadline.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.connect_deadline_ms);
  for (;;) {
    pump_wait_hooks();
    rendezvous::PeerAddr addr;
    if (rdv_client_.lookup(rdv_.round, rank, &addr)) {
      *host = addr.host;
      return addr.port;
    }
    if (Clock::now() >= deadline)
      throw peer_lost_error("rank " + std::to_string(rank) +
                            " never appeared in the port registry");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

int TcpEndpoint::connect_to(int rank) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.connect_deadline_ms);
  std::string host;
  const int port = lookup_port(rank, &host);
  in_addr peer_addr{};
  if (::inet_aton(host.c_str(), &peer_addr) == 0)
    throw std::runtime_error("rendezvous returned unparseable host \"" +
                             host + "\" for rank " + std::to_string(rank));
  // The peer has published its port, but its accept queue may fill or the
  // listener may briefly not exist yet (or anymore): retry refused
  // connections with exponential backoff until the deadline.  The backoff
  // carries deterministic per-(self, peer) jitter (a seeded LCG, not
  // entropy) so a cohort's retry storms decorrelate identically in a run
  // and its replay.
  int backoff_ms = 1;
  int attempts = 0;
  std::uint32_t lcg = 0x9E3779B9u ^ (static_cast<std::uint32_t>(rank_) << 16) ^
                      static_cast<std::uint32_t>(rank);
  for (;;) {
    pump_wait_hooks();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = peer_addr;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ++attempts;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
        0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    const int err = errno;
    ::close(fd);
    if (err != ECONNREFUSED && err != ETIMEDOUT) {
      errno = err;
      throw_errno("connect");
    }
    if (Clock::now() >= deadline)
      throw peer_lost_error("rank " + std::to_string(rank_) +
                            " could not connect to rank " +
                            std::to_string(rank) + " after " +
                            std::to_string(attempts) +
                            " attempts (connect deadline reached)");
    if (options_.metrics)
      options_.metrics->counter(rank_, "transport.connect_retries").add();
    lcg = lcg * 1664525u + 1013904223u;
    const int jitter_ms =
        static_cast<int>(lcg >> 16) % (backoff_ms / 2 + 1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff_ms + jitter_ms));
    backoff_ms = std::min(backoff_ms * 2, 64);
  }
}

void TcpEndpoint::sender_loop() {
  for (;;) {
    SendJob job;
    {
      std::unique_lock<std::mutex> lock(send_mutex_);
      send_cv_.wait(lock, [&] { return stop_ || !send_queue_.empty(); });
      if (send_queue_.empty()) return;  // stop requested, queue drained
      job = std::move(send_queue_.front());
      send_queue_.pop_front();
      ++in_flight_;
    }
    try {
      auto it = out_fds_.find(job.dst);
      if (it == out_fds_.end()) {
        const int fd = connect_to(job.dst);
        const std::int32_t hello = rank_;
        send_bytes(job.dst, fd, &hello, sizeof hello);
        it = out_fds_.emplace(job.dst, fd).first;
      }
      WireHeader h{job.tag, job.payload.size(), rank_, job.dst};
      send_bytes(job.dst, it->second, &h, sizeof h);
      if (!job.payload.empty())
        send_bytes(job.dst, it->second, job.payload.data(),
                   job.payload.size() * sizeof(double));
      if (options_.metrics) {
        options_.metrics->counter(rank_, "transport.msgs_sent").add();
        options_.metrics->counter(rank_, "transport.doubles_sent")
            .add(static_cast<long long>(job.payload.size()));
      }
    } catch (...) {
      if (options_.metrics) {
        try {
          throw;
        } catch (const peer_lost_error&) {
          options_.metrics->counter(rank_, "transport.peer_lost").add();
        } catch (...) {
        }
      }
      std::lock_guard<std::mutex> lock(send_mutex_);
      send_error_ = std::current_exception();
      send_queue_.clear();
      in_flight_ = 0;
      drain_cv_.notify_all();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(send_mutex_);
      --in_flight_;
      if (drained()) drain_cv_.notify_all();
      if (options_.metrics)
        options_.metrics->gauge(rank_, "transport.send_queue_depth")
            .set(static_cast<double>(send_queue_.size()));
    }
  }
}

void TcpEndpoint::send(int dst, MessageTag tag,
                       std::vector<double> payload) {
  SUBSONIC_REQUIRE(dst >= 0 && dst < ranks_);
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (send_error_) std::rethrow_exception(send_error_);
    if (!sender_.joinable())
      sender_ = std::thread(&TcpEndpoint::sender_loop, this);
    send_queue_.push_back(SendJob{dst, tag, std::move(payload)});
    if (options_.metrics)
      options_.metrics->gauge(rank_, "transport.send_queue_depth")
          .set(static_cast<double>(send_queue_.size()));
  }
  send_cv_.notify_one();
}

void TcpEndpoint::flush() {
  std::unique_lock<std::mutex> lock(send_mutex_);
  drain_cv_.wait(lock, [&] { return drained(); });
  if (send_error_) std::rethrow_exception(send_error_);
}

std::vector<double> TcpEndpoint::recv(int src, MessageTag tag) {
  SUBSONIC_REQUIRE(src >= 0 && src < ranks_);
  const bool has_deadline = options_.recv_deadline_ms > 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.recv_deadline_ms);
  telemetry::Counter* expired =
      options_.metrics
          ? &options_.metrics->counter(rank_, "transport.deadline_expired")
          : nullptr;
  Stopwatch wait;
  const auto charge_recv = [&](const std::vector<double>& payload) {
    if (!options_.metrics) return;
    options_.metrics->timer(rank_, "transport.recv_wait")
        .record(wait.seconds());
    options_.metrics->counter(rank_, "transport.msgs_recv").add();
    options_.metrics->counter(rank_, "transport.doubles_recv")
        .add(static_cast<long long>(payload.size()));
  };
  for (;;) {
    // 1. Parked from an earlier read?
    auto pit = parked_.find(src);
    if (pit != parked_.end()) {
      for (auto it = pit->second.begin(); it != pit->second.end(); ++it)
        if (it->first == tag) {
          std::vector<double> payload = std::move(it->second);
          pit->second.erase(it);
          charge_recv(payload);
          return payload;
        }
    }
    // 2. Need the connection from src.
    auto cit = in_fds_.find(src);
    if (cit == in_fds_.end()) {
      wait_io(listen_fd_, POLLIN, has_deadline, deadline, "accept", expired);
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        throw_errno("accept");
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      std::int32_t hello = -1;
      read_bytes(fd, &hello, sizeof hello, has_deadline, deadline, expired);
      SUBSONIC_CHECK(hello >= 0 && hello < ranks_);
      in_fds_.emplace(hello, fd);
      continue;
    }
    // 3. Read the next frame from src; park mismatched tags.
    WireHeader h{};
    read_bytes(cit->second, &h, sizeof h, has_deadline, deadline, expired);
    SUBSONIC_CHECK(h.src == src && h.dst == rank_);
    std::vector<double> payload(h.count);
    if (h.count > 0)
      read_bytes(cit->second, payload.data(), h.count * sizeof(double),
                 has_deadline, deadline, expired);
    if (h.tag == tag) {
      charge_recv(payload);
      return payload;
    }
    parked_[src].emplace_back(h.tag, std::move(payload));
  }
}

}  // namespace subsonic
