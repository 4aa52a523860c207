#include "src/comm/in_memory_transport.hpp"

#include <algorithm>

#include "src/telemetry/metrics.hpp"
#include "src/util/check.hpp"
#include "src/util/stopwatch.hpp"

namespace subsonic {

void InMemoryTransport::attach_metrics(
    std::shared_ptr<telemetry::MetricsRegistry> registry) {
  metrics_ = std::move(registry);
}

InMemoryTransport::InMemoryTransport(int ranks, InMemoryOptions options)
    : ranks_(ranks), options_(options) {
  SUBSONIC_REQUIRE(ranks > 0);
  SUBSONIC_REQUIRE(options.latency_s >= 0.0);
  channels_.reserve(static_cast<size_t>(ranks) * ranks);
  for (int i = 0; i < ranks * ranks; ++i)
    channels_.push_back(std::make_unique<Channel>());
}

InMemoryTransport::Channel& InMemoryTransport::channel(int src, int dst) {
  SUBSONIC_REQUIRE(src >= 0 && src < ranks_ && dst >= 0 && dst < ranks_);
  return *channels_[static_cast<size_t>(dst) * ranks_ + src];
}

void InMemoryTransport::send(int src, int dst, MessageTag tag,
                             std::vector<double> payload) {
  Channel& ch = channel(src, dst);
  auto ready = std::chrono::steady_clock::time_point{};  // immediately
  if (options_.latency_s > 0.0)
    ready = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options_.latency_s));
  const long long doubles = static_cast<long long>(payload.size());
  {
    std::lock_guard<std::mutex> lock(ch.mutex);
    ch.queue.push_back(Entry{tag, std::move(payload), ready});
  }
  ch.ready.notify_all();
  if (metrics_) {
    metrics_->counter(src, "transport.msgs_sent").add();
    metrics_->counter(src, "transport.doubles_sent").add(doubles);
  }
}

std::vector<double> InMemoryTransport::recv(int dst, int src,
                                            MessageTag tag) {
  Channel& ch = channel(src, dst);
  Stopwatch wait;
  std::unique_lock<std::mutex> lock(ch.mutex);
  for (;;) {
    const auto it =
        std::find_if(ch.queue.begin(), ch.queue.end(),
                     [tag](const Entry& e) { return e.tag == tag; });
    if (it != ch.queue.end()) {
      // Honour the link timing model: the message exists but is still "in
      // flight" until its delivery time.
      const auto ready = it->ready;
      if (ready > std::chrono::steady_clock::now()) {
        ch.ready.wait_until(lock, ready);
        continue;  // re-find: the queue may have changed while unlocked
      }
      std::vector<double> payload = std::move(it->payload);
      ch.queue.erase(it);
      if (metrics_) {
        lock.unlock();
        metrics_->timer(dst, "transport.recv_wait").record(wait.seconds());
        metrics_->counter(dst, "transport.msgs_recv").add();
        metrics_->counter(dst, "transport.doubles_recv")
            .add(static_cast<long long>(payload.size()));
      }
      return payload;
    }
    ch.ready.wait(lock);
  }
}

}  // namespace subsonic
