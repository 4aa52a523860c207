// Thread-to-thread transport: one FIFO mailbox per (src, dst) pair,
// guarded by a mutex + condition variable.  Models the guaranteed-delivery
// FIFO behaviour of the paper's TCP/IP channels without the kernel; its
// traffic counts live in the registry it is attached to.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/comm/transport.hpp"

namespace subsonic {

/// Optional link timing model.  With a nonzero latency each message only
/// becomes receivable latency_s seconds after its send — the sender never
/// blocks, so overlapped schedules can genuinely hide the delay, which is
/// what the overlap benchmark measures (the latency term of the paper's
/// T_com).
struct InMemoryOptions {
  double latency_s = 0.0;
};

class InMemoryTransport final : public Transport {
 public:
  /// `ranks` is the number of communicating processes; rank ids must be
  /// in [0, ranks).
  explicit InMemoryTransport(int ranks, InMemoryOptions options = {});

  void send(int src, int dst, MessageTag tag,
            std::vector<double> payload) override;
  std::vector<double> recv(int dst, int src, MessageTag tag) override;

  /// Charges per-rank "transport.*" counters and the recv-wait timer into
  /// `registry`.  Attach before traffic starts.
  void attach_metrics(
      std::shared_ptr<telemetry::MetricsRegistry> registry) override;

 private:
  struct Entry {
    MessageTag tag;
    std::vector<double> payload;
    std::chrono::steady_clock::time_point ready;  ///< delivery time
  };
  struct Channel {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Entry> queue;
  };

  Channel& channel(int src, int dst);

  int ranks_;
  InMemoryOptions options_;
  std::vector<std::unique_ptr<Channel>> channels_;  // dst-major
  std::shared_ptr<telemetry::MetricsRegistry> metrics_;
};

}  // namespace subsonic
