#include "src/comm/tcp_transport.hpp"

#include <unistd.h>

#include <exception>
#include <fstream>

#include "src/util/check.hpp"
#include "src/util/log.hpp"

namespace subsonic {

namespace {
/// Refused connections are retried with exponential backoff, because a
/// listener's accept queue may briefly overflow when every rank opens its
/// channels at once.  Every port is published before the first send, so
/// a peer that still refuses after this many attempts is gone: the send
/// surfaces a peer_lost_error naming both ranks.
constexpr int kAttemptCap = 12;
}  // namespace

TcpTransport::TcpTransport(int ranks, std::string registry_path)
    : registry_path_(std::move(registry_path)) {
  SUBSONIC_REQUIRE(ranks > 0);
  {
    std::ifstream probe(registry_path_);
    SUBSONIC_REQUIRE_MSG(!probe.good(),
                         "port registry file already exists (stale run?)");
  }
  TcpEndpointOptions options;
  options.connect_attempt_cap = kAttemptCap;
  endpoints_.reserve(ranks);
  try {
    for (int r = 0; r < ranks; ++r)
      endpoints_.push_back(
          std::make_unique<TcpEndpoint>(r, ranks, registry_path_, options));
  } catch (...) {
    ::unlink(registry_path_.c_str());  // a half-written registry is stale
    throw;
  }
}

TcpTransport::~TcpTransport() {
  // A frame still queued on one endpoint needs its peer's listener, so
  // drain them all before any closes.
  for (auto& endpoint : endpoints_) {
    try {
      endpoint->flush();
    } catch (const std::exception& e) {
      SUBSONIC_LOG(kWarn) << "TcpTransport: rank " << endpoint->rank()
                          << " lost queued frames at shutdown: " << e.what();
    }
  }
  endpoints_.clear();
  ::unlink(registry_path_.c_str());
}

int TcpTransport::listen_port(int rank) const {
  SUBSONIC_REQUIRE(rank >= 0 && rank < static_cast<int>(endpoints_.size()));
  return endpoints_[rank]->port();
}

void TcpTransport::attach_metrics(
    std::shared_ptr<telemetry::MetricsRegistry> registry) {
  for (auto& endpoint : endpoints_) endpoint->attach_metrics(registry);
}

void TcpTransport::send(int src, int dst, MessageTag tag,
                        std::vector<double> payload) {
  SUBSONIC_REQUIRE(src >= 0 && src < static_cast<int>(endpoints_.size()));
  endpoints_[src]->send(dst, tag, std::move(payload));
}

std::vector<double> TcpTransport::recv(int dst, int src, MessageTag tag) {
  SUBSONIC_REQUIRE(dst >= 0 && dst < static_cast<int>(endpoints_.size()));
  std::vector<double> payload = endpoints_[dst]->recv(src, tag);
  ++delivered_;
  doubles_delivered_ += static_cast<long long>(payload.size());
  return payload;
}

}  // namespace subsonic
