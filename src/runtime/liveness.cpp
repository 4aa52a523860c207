#include "src/runtime/liveness.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/util/env_int.hpp"

namespace subsonic {
namespace liveness {

namespace {

constexpr std::uint32_t kBeaconMagic = 0x53554248u;    // "SUBH"
constexpr std::uint32_t kRollbackMagic = 0x53554252u;  // "SUBR"

template <typename T>
void put(unsigned char*& p, T v) {
  std::memcpy(p, &v, sizeof v);
  p += sizeof v;
}

template <typename T>
T get(const unsigned char*& p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  p += sizeof v;
  return v;
}

}  // namespace

int resolve_floor_ms(const LivenessOptions& options) {
  if (options.heartbeat_floor_ms > 0) return options.heartbeat_floor_ms;
  return env_int("SUBSONIC_HEARTBEAT_MS", 5000, 1, INT_MAX);
}

bool resolve_socket_channels(const LivenessOptions& options) {
  if (options.socket_channels > 0) return true;
  if (options.socket_channels < 0) return false;
  const char* env = std::getenv("SUBSONIC_LIVENESS_CHANNEL");
  const std::string name = env ? env : "";
  if (name.empty() || name == "pipe") return false;
  if (name == "socket") return true;
  throw std::invalid_argument("SUBSONIC_LIVENESS_CHANNEL=\"" + name +
                              "\" (expected \"pipe\" or \"socket\")");
}

std::string registry_for(const std::string& base, int round) {
  return base + ".g" + std::to_string(round);
}

void encode_beacon(const Beacon& b, unsigned char out[kBeaconBytes]) {
  unsigned char* p = out;
  put(p, kBeaconMagic);
  put(p, static_cast<std::int32_t>(b.rank));
  put(p, static_cast<std::int32_t>(b.phase));
  put(p, b.round);
  put(p, b.step);
  put(p, b.mono_ns);
}

bool decode_beacon(const unsigned char in[kBeaconBytes], Beacon* out) {
  const unsigned char* p = in;
  if (get<std::uint32_t>(p) != kBeaconMagic) return false;
  out->rank = get<std::int32_t>(p);
  const std::int32_t phase = get<std::int32_t>(p);
  if (phase < 0 || phase > static_cast<std::int32_t>(Phase::kWait))
    return false;
  out->phase = static_cast<Phase>(phase);
  out->round = get<std::int32_t>(p);
  out->step = get<std::int64_t>(p);
  out->mono_ns = get<std::int64_t>(p);
  return true;
}

void encode_rollback(const RollbackMsg& m, unsigned char out[kRollbackBytes]) {
  unsigned char* p = out;
  put(p, kRollbackMagic);
  put(p, m.round);
  put(p, m.epoch);
}

bool decode_rollback(const unsigned char in[kRollbackBytes],
                     RollbackMsg* out) {
  const unsigned char* p = in;
  if (get<std::uint32_t>(p) != kRollbackMagic) return false;
  out->round = get<std::int32_t>(p);
  out->epoch = get<std::int64_t>(p);
  return true;
}

namespace {

/// Reads exactly `len` bytes; false on EOF/error — and on EAGAIN, so the
/// O_NONBLOCK drain below terminates when the pipe runs dry (rollback
/// writes are 16-byte atomic, so a partial frame cannot be stranded).
bool read_exact(int fd, unsigned char* buf, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, buf + got, len - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF, EAGAIN, or hard error
  }
  return true;
}

}  // namespace

int read_rollback(int fd, RollbackMsg* out) {
  unsigned char buf[kRollbackBytes];
  if (!read_exact(fd, buf, kRollbackBytes)) return 0;
  if (!decode_rollback(buf, out)) return 0;
  int consumed = 1;
  // Drain queued newer orders: if two recoveries raced this child's
  // rollback handling, only the newest round matters.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0) {
    RollbackMsg newer;
    while (read_exact(fd, buf, kRollbackBytes) &&
           decode_rollback(buf, &newer)) {
      *out = newer;
      ++consumed;
    }
    ::fcntl(fd, F_SETFL, flags);
  }
  return consumed;
}

long long mono_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Emitter::Emitter(int fd, int rank, int interval_ms)
    : fd_(fd),
      rank_(rank),
      interval_ns_(static_cast<long long>(
                       interval_ms > 0 ? interval_ms : 1) *
                   1000 * 1000) {}

void Emitter::emit(Phase phase, long step) {
  if (!active()) return;
  last_step_.store(step, std::memory_order_relaxed);
  write_beacon(phase, step);
  last_ns_.store(mono_now_ns(), std::memory_order_relaxed);
}

void Emitter::wait_tick() {
  if (!active()) return;
  const long long now = mono_now_ns();
  long long last = last_ns_.load(std::memory_order_relaxed);
  if (now - last < interval_ns_) return;
  // One winner per interval even with the sender thread racing the main
  // loop; losers simply skip — the beacon they wanted was just sent.
  if (!last_ns_.compare_exchange_strong(last, now, std::memory_order_relaxed))
    return;
  write_beacon(Phase::kWait, last_step_.load(std::memory_order_relaxed));
}

void Emitter::write_beacon(Phase phase, long step) {
  Beacon b;
  b.rank = rank_;
  b.phase = phase;
  b.round = round_.load(std::memory_order_relaxed);
  b.step = step;
  b.mono_ns = mono_now_ns();
  unsigned char frame[kBeaconBytes];
  encode_beacon(b, frame);
  // O_NONBLOCK write end: a full pipe (supervisor stalled) drops the
  // beacon rather than wedging the child.  32 <= PIPE_BUF, so the write
  // is all-or-nothing — no torn frames.
  const ssize_t n = ::write(fd_, frame, kBeaconBytes);
  (void)n;
}

void DeadlineModel::observe_step(double dt_s) {
  if (dt_s <= 0) return;
  ewma_step_s = ewma_step_s > 0 ? 0.7 * ewma_step_s + 0.3 * dt_s : dt_s;
}

double DeadlineModel::deadline_s() const {
  const double adaptive = multiplier * ewma_step_s;
  return adaptive > floor_s ? adaptive : floor_s;
}

Monitor::Monitor(double floor_s, double multiplier)
    : floor_s_(floor_s), multiplier_(multiplier) {}

void Monitor::attach(int rank, int fd, int round, double now_s) {
  State st;
  st.fd = fd;
  st.round = round;
  st.last_beacon_s = now_s;
  st.model.floor_s = floor_s_;
  st.model.multiplier = multiplier_;
  states_[rank] = std::move(st);
}

void Monitor::detach(int rank) { states_.erase(rank); }

bool Monitor::attached(int rank) const { return states_.count(rank) != 0; }

void Monitor::on_recovery_signal(int rank, double now_s) {
  const auto it = states_.find(rank);
  if (it == states_.end()) return;
  State& st = it->second;
  st.last_beacon_s = now_s;
  st.hung = false;
  st.last_step_mono = -1;
}

void Monitor::poll(double now_s) {
  for (auto& [rank, st] : states_) {
    (void)rank;
    if (st.fd < 0) continue;
    char chunk[512];
    for (;;) {
      const ssize_t n = ::read(st.fd, chunk, sizeof chunk);
      if (n > 0) {
        st.buf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      break;  // 0 = writer gone (reap will follow); <0 = EAGAIN/EINTR
    }
    // Beacons are written atomically, but a read can still split one:
    // a partial beacon waits in the carry for the next poll, and a byte
    // that starts no valid beacon resyncs by one.
    while (st.buf.size() >= kBeaconBytes) {
      Beacon b;
      if (!decode_beacon(
              reinterpret_cast<const unsigned char*>(st.buf.data()), &b)) {
        st.buf.erase(0, 1);
        continue;
      }
      st.buf.erase(0, kBeaconBytes);
      st.last_beacon_s = now_s;
      if (b.round > st.round) st.round = b.round;
      if (b.phase == Phase::kStep) {
        if (st.last_step_mono >= 0 && b.mono_ns > st.last_step_mono)
          st.model.observe_step(
              static_cast<double>(b.mono_ns - st.last_step_mono) * 1e-9);
        st.last_step_mono = b.mono_ns;
        if (b.step > st.step) st.step = b.step;
      } else if (b.phase == Phase::kStart) {
        // New round: the step counter rewinds and cross-round step deltas
        // are meaningless for the EWMA.
        st.step = b.step;
        st.last_step_mono = -1;
      }
    }
  }
}

std::vector<int> Monitor::newly_hung(double now_s) {
  std::vector<int> hung;
  for (auto& [rank, st] : states_) {
    if (st.hung) continue;
    if (now_s - st.last_beacon_s > st.model.deadline_s()) {
      st.hung = true;
      hung.push_back(rank);
    }
  }
  return hung;
}

long Monitor::last_step(int rank) const {
  const auto it = states_.find(rank);
  return it == states_.end() ? -1 : it->second.step;
}

int Monitor::observed_round(int rank) const {
  const auto it = states_.find(rank);
  return it == states_.end() ? -1 : it->second.round;
}

double Monitor::silence_s(int rank, double now_s) const {
  const auto it = states_.find(rank);
  return it == states_.end() ? 0 : now_s - it->second.last_beacon_s;
}

double Monitor::deadline_s(int rank) const {
  const auto it = states_.find(rank);
  return it == states_.end() ? 0 : it->second.model.deadline_s();
}

bool Monitor::beaconed_since(int rank, double t_s) const {
  const auto it = states_.find(rank);
  return it == states_.end() || it->second.last_beacon_s >= t_s;
}

Escalation::Action Escalation::next(double now_s, double grace_s) {
  if (term_at_s < 0) {
    term_at_s = now_s;
    return Action::kSigterm;
  }
  if (!killed && now_s - term_at_s >= grace_s) {
    killed = true;
    return Action::kSigkill;
  }
  return Action::kNone;
}

}  // namespace liveness
}  // namespace subsonic
