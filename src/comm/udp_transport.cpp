#include "src/comm/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "src/telemetry/metrics.hpp"
#include "src/util/check.hpp"
#include "src/util/stopwatch.hpp"

namespace subsonic {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Payload doubles per datagram fragment (32 KiB, well below 64 KiB).
constexpr std::uint64_t kFragmentDoubles = 4096;

enum : std::uint32_t { kData = 1, kAck = 2 };

struct FragHeader {
  std::uint32_t kind = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  MessageTag tag = 0;
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 0;
  std::uint64_t total_doubles = 0;
};

/// Fragments a payload of `total` doubles travels in (an empty payload
/// still travels in one).
std::uint64_t fragments_for(std::uint64_t total) {
  return std::max<std::uint64_t>(1, total / kFragmentDoubles +
                                        (total % kFragmentDoubles != 0));
}

/// Doubles fragment `index` of a `total`-double payload carries.
std::uint64_t fragment_doubles(std::uint64_t total, std::uint64_t index) {
  const std::uint64_t begin = index * kFragmentDoubles;
  return std::min(total, begin + kFragmentDoubles) - begin;
}

using FragKey = std::tuple<int, MessageTag, std::uint32_t>;  // dst/src,tag,i
using MsgKey = std::pair<int, MessageTag>;                   // peer, tag

}  // namespace

struct UdpTransport::RankState {
  int fd = -1;
  int port = 0;
  // Guards unacked (shared between the owning worker and the background
  // retransmission service).
  std::mutex mutex;
  // Sender side: frames awaiting acknowledgement, with last send time.
  struct Unacked {
    std::vector<char> frame;
    int dst = 0;
    double last_sent = 0;
  };
  std::map<FragKey, Unacked> unacked;
  // Receiver side: partial reassemblies and completed payloads.
  struct Partial {
    std::vector<double> data;
    std::vector<bool> have;
    std::uint32_t remaining = 0;
  };
  std::map<MsgKey, Partial> partial;
  std::map<MsgKey, std::vector<double>> completed;
  // Tags fully delivered to the caller; duplicates of these are re-acked
  // and dropped.
  std::map<MsgKey, bool> consumed;
  // pump's receive buffer: one header and one full fragment.
  std::vector<char> rx =
      std::vector<char>(sizeof(FragHeader) + kFragmentDoubles * sizeof(double));
};

UdpTransport::UdpTransport(int ranks, UdpOptions options)
    : ranks_(ranks), options_(options) {
  SUBSONIC_REQUIRE(ranks > 0);
  states_.reserve(ranks);
  for (int r = 0; r < ranks; ++r) {
    auto st = std::make_unique<RankState>();
    st->fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (st->fd < 0) throw_errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(st->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
      throw_errno("bind");
    socklen_t len = sizeof addr;
    if (::getsockname(st->fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
      throw_errno("getsockname");
    st->port = ntohs(addr.sin_port);
    // Generous socket buffers: a whole boundary exchange can burst dozens
    // of 32 KiB datagrams at a receiver before it drains them.
    int size = 4 << 20;
    ::setsockopt(st->fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof size);
    ::setsockopt(st->fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof size);
    states_.push_back(std::move(st));
  }

  // The sender-side half of guaranteed delivery: a service thread that
  // retransmits anything unacknowledged past the timeout, so delivery
  // completes even when the sending worker is busy elsewhere.
  service_ = std::thread([this] { service_loop(); });
}

void UdpTransport::service_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        options_.retransmit_timeout_s / 2));
    for (int r = 0; r < ranks_; ++r) retransmit_stale(r);
  }
}

UdpTransport::~UdpTransport() {
  stop_.store(true);
  if (service_.joinable()) service_.join();
  for (auto& st : states_)
    if (st && st->fd >= 0) ::close(st->fd);
}

void UdpTransport::attach_metrics(
    std::shared_ptr<telemetry::MetricsRegistry> registry) {
  metrics_ = std::move(registry);
}

int UdpTransport::port(int rank) const {
  SUBSONIC_REQUIRE(rank >= 0 && rank < ranks_);
  return states_[rank]->port;
}

void UdpTransport::count(int rank, const char* name, long long n) {
  if (metrics_) metrics_->counter(rank, name).add(n);
}

void UdpTransport::transmit_fragment(int rank,
                                     const std::vector<char>& frame,
                                     int dst_rank, bool first_time) {
  if (first_time && options_.drop_every_n > 0 &&
      (drop_counter_.fetch_add(1) + 1) % options_.drop_every_n == 0) {
    count(rank, "transport.datagrams_dropped");
    return;  // simulate a lost datagram; retransmission recovers it
  }
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dest.sin_port = htons(static_cast<std::uint16_t>(states_[dst_rank]->port));
  const ssize_t n =
      ::sendto(states_[rank]->fd, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&dest), sizeof dest);
  if (n < 0) throw_errno("sendto");
  count(rank, "transport.datagrams_sent");
}

void UdpTransport::send(int src, int dst, MessageTag tag,
                        std::vector<double> payload) {
  SUBSONIC_REQUIRE(src >= 0 && src < ranks_ && dst >= 0 && dst < ranks_);
  RankState& st = *states_[src];
  const std::uint64_t total = payload.size();
  const auto frags = static_cast<std::uint32_t>(fragments_for(total));
  for (std::uint32_t i = 0; i < frags; ++i) {
    const std::uint64_t doubles = fragment_doubles(total, i);
    FragHeader h{kData, src, dst, tag, i, frags, total};
    std::vector<char> frame(sizeof h + doubles * sizeof(double));
    std::memcpy(frame.data(), &h, sizeof h);
    if (doubles > 0)
      std::memcpy(frame.data() + sizeof h,
                  payload.data() + std::size_t(i) * kFragmentDoubles,
                  doubles * sizeof(double));
    {
      std::lock_guard<std::mutex> lock(st.mutex);
      st.unacked[{dst, tag, i}] =
          RankState::Unacked{frame, dst, now_seconds()};
    }
    transmit_fragment(src, frame, dst, /*first_time=*/true);
  }
  count(src, "transport.msgs_sent");
  count(src, "transport.doubles_sent", static_cast<long long>(total));
  // Opportunistically drain any pending ACKs for earlier sends.
  pump(src, 0.0);
}

void UdpTransport::retransmit_stale(int rank) {
  RankState& st = *states_[rank];
  const double now = now_seconds();
  // Snapshot the stale frames under the lock, transmit outside it.
  std::vector<std::pair<std::vector<char>, int>> stale;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    for (auto& [key, u] : st.unacked) {
      if (now - u.last_sent >= options_.retransmit_timeout_s) {
        u.last_sent = now;
        stale.emplace_back(u.frame, u.dst);
      }
    }
  }
  for (const auto& [frame, dst] : stale)
    transmit_fragment(rank, frame, dst, /*first_time=*/false);
  if (!stale.empty())
    count(rank, "transport.retransmissions",
          static_cast<long long>(stale.size()));
}

void UdpTransport::pump(int rank, double wait_s) {
  RankState& st = *states_[rank];
  std::vector<char>& buffer = st.rx;
  for (;;) {
    pollfd pfd{st.fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(wait_s * 1000));
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (pr == 0) return;  // nothing pending
    // MSG_TRUNC: n is the datagram's real length, even past the buffer.
    const ssize_t n = ::recvfrom(st.fd, buffer.data(), buffer.size(),
                                 MSG_TRUNC, nullptr, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recvfrom");
    }
    wait_s = 0;  // keep draining without blocking again

    // The bytes come from whoever can reach the port: check the header
    // before it indexes anything, and drop (unacknowledged) what fails.
    FragHeader h{};
    const auto reject = [&] { count(rank, "transport.datagrams_rejected"); };
    if (static_cast<std::size_t>(n) < sizeof h) {
      reject();
      continue;
    }
    std::memcpy(&h, buffer.data(), sizeof h);
    if ((h.kind != kData && h.kind != kAck) || h.dst != rank || h.src < 0 ||
        h.src >= ranks_) {
      reject();
      continue;
    }

    if (h.kind == kAck) {
      // We are the original sender; the peer confirms one fragment.
      std::lock_guard<std::mutex> lock(st.mutex);
      st.unacked.erase({h.src, h.tag, h.frag_index});
      continue;
    }

    const MsgKey key{h.src, h.tag};
    auto pit = st.partial.find(key);
    const std::uint64_t doubles =
        (static_cast<std::uint64_t>(n) - sizeof h) / sizeof(double);
    if (h.frag_index >= h.frag_count ||
        h.frag_count != fragments_for(h.total_doubles) ||
        static_cast<std::uint64_t>(n) - sizeof h != doubles * sizeof(double) ||
        doubles != fragment_doubles(h.total_doubles, h.frag_index) ||
        (pit != st.partial.end() &&
         (pit->second.data.size() != h.total_doubles ||
          pit->second.have.size() != h.frag_count))) {
      reject();
      continue;
    }

    // Always acknowledge, even duplicates (the ACK may have been lost).
    FragHeader ack{kAck, h.dst, h.src, h.tag, h.frag_index, 0, 0};
    std::vector<char> ack_frame(sizeof ack);
    std::memcpy(ack_frame.data(), &ack, sizeof ack);
    transmit_fragment(rank, ack_frame, h.src, /*first_time=*/false);

    if (st.consumed.count(key) || st.completed.count(key))
      continue;  // duplicate of an already-assembled message
    if (pit == st.partial.end()) {
      RankState::Partial p;
      p.data.resize(h.total_doubles);
      p.have.assign(h.frag_count, false);
      p.remaining = h.frag_count;
      pit = st.partial.emplace(key, std::move(p)).first;
    }
    RankState::Partial& p = pit->second;
    if (!p.have[h.frag_index]) {
      p.have[h.frag_index] = true;
      --p.remaining;
      if (doubles > 0)
        std::memcpy(p.data.data() + h.frag_index * kFragmentDoubles,
                    buffer.data() + sizeof h, doubles * sizeof(double));
      if (p.remaining == 0) {
        st.completed.emplace(key, std::move(p.data));
        st.partial.erase(pit);
      }
    }
  }
}

std::vector<double> UdpTransport::recv(int dst, int src, MessageTag tag) {
  SUBSONIC_REQUIRE(src >= 0 && src < ranks_ && dst >= 0 && dst < ranks_);
  RankState& st = *states_[dst];
  const MsgKey key{src, tag};
  Stopwatch wait;
  for (;;) {
    const auto it = st.completed.find(key);
    if (it != st.completed.end()) {
      std::vector<double> payload = std::move(it->second);
      st.completed.erase(it);
      st.consumed[key] = true;
      if (metrics_)
        metrics_->timer(dst, "transport.recv_wait").record(wait.seconds());
      count(dst, "transport.msgs_recv");
      count(dst, "transport.doubles_recv",
            static_cast<long long>(payload.size()));
      return payload;
    }
    pump(dst, options_.retransmit_timeout_s / 2);
    retransmit_stale(dst);
  }
}

}  // namespace subsonic
