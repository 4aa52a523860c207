// The liveness layer in isolation: beacon/rollback wire codecs, the
// adaptive silence deadline, the escalation ladder, and the child-side
// Emitter feeding the supervisor-side Monitor over a real pipe.  The
// supervision loop (supervisor.cpp) is exercised end-to-end by the
// hang/mute tests in test_process2d.cpp / test_process3d.cpp /
// test_process_blocked.cpp.
#include "src/runtime/liveness.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace subsonic {
namespace liveness {
namespace {

TEST(LivenessCodec, BeaconRoundTrips) {
  Beacon in;
  in.rank = 7;
  in.phase = Phase::kWait;
  in.round = 3;
  in.step = 123456789012345LL;
  in.mono_ns = 987654321098765LL;
  unsigned char frame[kBeaconBytes];
  encode_beacon(in, frame);
  Beacon out;
  ASSERT_TRUE(decode_beacon(frame, &out));
  EXPECT_EQ(out.rank, 7);
  EXPECT_EQ(out.phase, Phase::kWait);
  EXPECT_EQ(out.round, 3);
  EXPECT_EQ(out.step, in.step);
  EXPECT_EQ(out.mono_ns, in.mono_ns);
}

TEST(LivenessCodec, BeaconRejectsGarbage) {
  unsigned char frame[kBeaconBytes];
  std::memset(frame, 0xAB, sizeof frame);  // wrong magic
  Beacon out;
  EXPECT_FALSE(decode_beacon(frame, &out));

  Beacon in;
  in.rank = 0;
  in.phase = Phase::kStep;
  encode_beacon(in, frame);
  frame[8] = 0x7F;  // phase field out of range
  EXPECT_FALSE(decode_beacon(frame, &out));
}

TEST(LivenessCodec, RollbackRoundTripsAndRejectsGarbage) {
  RollbackMsg in;
  in.round = 5;
  in.epoch = 42;
  unsigned char frame[kRollbackBytes];
  encode_rollback(in, frame);
  RollbackMsg out;
  ASSERT_TRUE(decode_rollback(frame, &out));
  EXPECT_EQ(out.round, 5);
  EXPECT_EQ(out.epoch, 42);
  std::memset(frame, 0, sizeof frame);
  EXPECT_FALSE(decode_rollback(frame, &out));
}

TEST(LivenessCodec, ReadRollbackKeepsTheNewestQueuedOrder) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  unsigned char frame[kRollbackBytes];
  RollbackMsg first;
  first.round = 1;
  first.epoch = 2;
  encode_rollback(first, frame);
  ASSERT_EQ(::write(fds[1], frame, kRollbackBytes),
            static_cast<ssize_t>(kRollbackBytes));
  RollbackMsg second;
  second.round = 2;
  second.epoch = 5;
  encode_rollback(second, frame);
  ASSERT_EQ(::write(fds[1], frame, kRollbackBytes),
            static_cast<ssize_t>(kRollbackBytes));

  RollbackMsg got;
  // Both queued orders are consumed (the count retires the matching
  // SIGUSR1s) and the overtaking order wins.
  EXPECT_EQ(read_rollback(fds[0], &got), 2);
  EXPECT_EQ(got.round, 2);
  EXPECT_EQ(got.epoch, 5);

  ::close(fds[1]);
  EXPECT_EQ(read_rollback(fds[0], &got), 0);  // EOF: supervisor gone
  ::close(fds[0]);
}

TEST(LivenessDeadline, FloorDominatesUntilStepsAreObserved) {
  DeadlineModel m;
  m.floor_s = 2.0;
  m.multiplier = 8.0;
  EXPECT_DOUBLE_EQ(m.deadline_s(), 2.0);
  m.observe_step(0.1);  // 8 * 0.1 = 0.8 < floor
  EXPECT_DOUBLE_EQ(m.deadline_s(), 2.0);
  m.observe_step(1.0);  // EWMA = 0.7*0.1 + 0.3*1.0 = 0.37 -> 2.96
  EXPECT_GT(m.deadline_s(), 2.0);
  EXPECT_NEAR(m.deadline_s(), 8.0 * 0.37, 1e-9);
  m.observe_step(-1.0);  // non-positive deltas are ignored
  EXPECT_NEAR(m.deadline_s(), 8.0 * 0.37, 1e-9);
}

TEST(LivenessEscalation, LadderFiresEachRungExactlyOnce) {
  Escalation esc;
  EXPECT_EQ(esc.next(10.0, 2.0), Escalation::Action::kSigterm);
  EXPECT_EQ(esc.next(10.5, 2.0), Escalation::Action::kNone);  // inside grace
  EXPECT_EQ(esc.next(11.9, 2.0), Escalation::Action::kNone);
  EXPECT_EQ(esc.next(12.0, 2.0), Escalation::Action::kSigkill);
  EXPECT_EQ(esc.next(99.0, 2.0), Escalation::Action::kNone);  // never again
}

TEST(LivenessFloor, OptionBeatsEnvBeatsDefault) {
  LivenessOptions o;
  ::unsetenv("SUBSONIC_HEARTBEAT_MS");
  EXPECT_EQ(resolve_floor_ms(o), 5000);
  ::setenv("SUBSONIC_HEARTBEAT_MS", "750", 1);
  EXPECT_EQ(resolve_floor_ms(o), 750);
  o.heartbeat_floor_ms = 1234;
  EXPECT_EQ(resolve_floor_ms(o), 1234);
  ::unsetenv("SUBSONIC_HEARTBEAT_MS");
}

TEST(LivenessChannel, OptionBeatsEnvAndUnknownNamesThrow) {
  const char* saved = std::getenv("SUBSONIC_LIVENESS_CHANNEL");
  const std::string restore = saved ? saved : "";
  LivenessOptions o;
  ::unsetenv("SUBSONIC_LIVENESS_CHANNEL");
  EXPECT_FALSE(resolve_socket_channels(o));
  ::setenv("SUBSONIC_LIVENESS_CHANNEL", "", 1);  // CI exports it empty
  EXPECT_FALSE(resolve_socket_channels(o));
  ::setenv("SUBSONIC_LIVENESS_CHANNEL", "pipe", 1);
  EXPECT_FALSE(resolve_socket_channels(o));
  ::setenv("SUBSONIC_LIVENESS_CHANNEL", "socket", 1);
  EXPECT_TRUE(resolve_socket_channels(o));
  o.socket_channels = -1;
  EXPECT_FALSE(resolve_socket_channels(o));
  o.socket_channels = 0;
  for (const char* text : {"sockets", "Socket", "pipes", "tcp", " socket"}) {
    ::setenv("SUBSONIC_LIVENESS_CHANNEL", text, 1);
    try {
      resolve_socket_channels(o);
      ADD_FAILURE() << '"' << text << "\" was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      for (const char* word : {"SUBSONIC_LIVENESS_CHANNEL", "pipe", "socket"})
        EXPECT_NE(what.find(word), std::string::npos) << what;
    }
    o.socket_channels = 1;  // an explicit option never reads the variable
    EXPECT_TRUE(resolve_socket_channels(o));
    o.socket_channels = 0;
  }
  if (saved)
    ::setenv("SUBSONIC_LIVENESS_CHANNEL", restore.c_str(), 1);
  else
    ::unsetenv("SUBSONIC_LIVENESS_CHANNEL");
}

TEST(LivenessRegistry, PerRoundNames) {
  EXPECT_EQ(registry_for("/tmp/wd/ports", 0), "/tmp/wd/ports.g0");
  EXPECT_EQ(registry_for("/tmp/wd/ports", 3), "/tmp/wd/ports.g3");
}

/// A nonblocking pipe pair wired like the supervisor wires children.
struct HeartbeatPipe {
  int read_fd = -1;
  int write_fd = -1;
  HeartbeatPipe() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
    ::fcntl(read_fd, F_SETFL, O_NONBLOCK);
    ::fcntl(write_fd, F_SETFL, O_NONBLOCK);
  }
  ~HeartbeatPipe() {
    if (read_fd >= 0) ::close(read_fd);
    if (write_fd >= 0) ::close(write_fd);
  }
};

TEST(LivenessMonitor, EmitterBeaconsKeepARankAlive) {
  HeartbeatPipe hb;
  Emitter emitter(hb.write_fd, 0, 50);
  Monitor monitor(/*floor_s=*/1.0, /*multiplier=*/8.0);
  monitor.attach(0, hb.read_fd, /*round=*/0, /*now_s=*/0.0);

  emitter.set_round(0);
  emitter.emit(Phase::kStart, 0);
  emitter.emit(Phase::kStep, 1);
  emitter.emit(Phase::kStep, 2);
  monitor.poll(0.5);
  EXPECT_EQ(monitor.last_step(0), 2);
  EXPECT_EQ(monitor.observed_round(0), 0);
  EXPECT_TRUE(monitor.newly_hung(0.9).empty());  // beacon at 0.5, floor 1.0

  // Fresh beacons keep pushing the deadline out.
  emitter.emit(Phase::kWait, 2);
  monitor.poll(1.8);
  EXPECT_TRUE(monitor.newly_hung(2.7).empty());
}

TEST(LivenessMonitor, SilenceCrossesTheDeadlineExactlyOnce) {
  HeartbeatPipe hb;
  Emitter emitter(hb.write_fd, 3, 50);
  Monitor monitor(/*floor_s=*/1.0, /*multiplier=*/8.0);
  monitor.attach(3, hb.read_fd, 0, 0.0);
  emitter.emit(Phase::kStart, 0);
  monitor.poll(0.1);

  emitter.mute();  // the mute fault: the process lives, the beacons stop
  emitter.emit(Phase::kStep, 1);
  monitor.poll(0.2);
  EXPECT_EQ(monitor.last_step(3), 0);  // the muted beacon never arrived

  const std::vector<int> hung = monitor.newly_hung(1.5);
  ASSERT_EQ(hung.size(), 1u);
  EXPECT_EQ(hung[0], 3);
  EXPECT_GT(monitor.silence_s(3, 1.5), 1.0);
  // Reported once: the escalation ladder owns it now.
  EXPECT_TRUE(monitor.newly_hung(99.0).empty());

  // A recovery signal re-arms the watchdog for the survivor.
  monitor.on_recovery_signal(3, /*now_s=*/100.0);
  EXPECT_TRUE(monitor.newly_hung(100.5).empty());
  ASSERT_EQ(monitor.newly_hung(102.0).size(), 1u);
}

TEST(LivenessMonitor, RecoverySignalLeavesTheRoundToTheBeacons) {
  // A rollback order to round 1 is not proof the rank took it: one that
  // had passed its last rollback check finishes round 0 and exits 0, and
  // the supervisor must respawn it rather than count it done.  So the
  // observed round moves only when a round-1 beacon is polled.
  HeartbeatPipe hb;
  Emitter emitter(hb.write_fd, 2, 50);
  Monitor monitor(/*floor_s=*/1.0, /*multiplier=*/8.0);
  monitor.attach(2, hb.read_fd, /*round=*/0, /*now_s=*/0.0);
  emitter.emit(Phase::kStart, 0);
  emitter.emit(Phase::kStep, 1);
  monitor.poll(0.1);
  ASSERT_EQ(monitor.observed_round(2), 0);

  monitor.on_recovery_signal(2, /*now_s=*/0.2);  // the order for round 1
  EXPECT_EQ(monitor.observed_round(2), 0);
  emitter.emit(Phase::kStep, 2);  // still round 0
  monitor.poll(0.3);
  EXPECT_EQ(monitor.observed_round(2), 0);

  emitter.set_round(1);
  emitter.emit(Phase::kStart, 0);
  monitor.poll(0.4);
  EXPECT_EQ(monitor.observed_round(2), 1);
}

TEST(LivenessMonitor, StepBeaconsDriveTheAdaptiveDeadline) {
  HeartbeatPipe hb;
  Monitor monitor(/*floor_s=*/0.1, /*multiplier=*/4.0);
  monitor.attach(0, hb.read_fd, 0, 0.0);

  // Hand-crafted beacons with controlled mono_ns: steps 1s apart push the
  // EWMA (and thus the deadline) well past the floor.
  for (int i = 0; i < 3; ++i) {
    Beacon b;
    b.rank = 0;
    b.phase = Phase::kStep;
    b.round = 0;
    b.step = i + 1;
    b.mono_ns = static_cast<std::int64_t>(i + 1) * 1000000000LL;
    unsigned char frame[kBeaconBytes];
    encode_beacon(b, frame);
    ASSERT_EQ(::write(hb.write_fd, frame, kBeaconBytes),
              static_cast<ssize_t>(kBeaconBytes));
  }
  monitor.poll(1.0);
  EXPECT_EQ(monitor.last_step(0), 3);
  EXPECT_NEAR(monitor.deadline_s(0), 4.0, 1e-6);  // 4 * EWMA(1s)
  EXPECT_TRUE(monitor.newly_hung(3.0).empty());   // 2s silent < 4s deadline
  ASSERT_EQ(monitor.newly_hung(6.0).size(), 1u);  // 5s silent > 4s deadline
}

TEST(LivenessEmitter, WaitTicksAreRateLimited) {
  HeartbeatPipe hb;
  Emitter emitter(hb.write_fd, 1, /*interval_ms=*/10000);
  emitter.emit(Phase::kStep, 4);  // stamps last_ns: the interval gate is armed
  emitter.wait_tick();            // inside the interval: suppressed
  emitter.wait_tick();

  unsigned char buf[kBeaconBytes * 8];
  const ssize_t n = ::read(hb.read_fd, buf, sizeof buf);
  ASSERT_EQ(n, static_cast<ssize_t>(kBeaconBytes));  // just the kStep beacon
  Beacon b;
  ASSERT_TRUE(decode_beacon(buf, &b));
  EXPECT_EQ(b.phase, Phase::kStep);
  EXPECT_EQ(b.step, 4);
}

TEST(LivenessEmitter, InactiveWithoutAFd) {
  Emitter none;  // a child run without supervision plumbing
  EXPECT_FALSE(none.active());
  none.emit(Phase::kStep, 1);  // must be a no-op, not a crash
  none.wait_tick();
}

TEST(LivenessMonitor, TornBeaconIsCarriedAcrossPolls) {
  HeartbeatPipe hb;
  Monitor monitor(/*floor_s=*/1.0, /*multiplier=*/8.0);
  monitor.attach(4, hb.read_fd, 0, 0.0);
  const long before = monitor.last_step(4);

  Beacon b;
  b.rank = 4;
  b.phase = Phase::kStep;
  b.step = 9;
  b.mono_ns = 1000;
  unsigned char frame[kBeaconBytes];
  encode_beacon(b, frame);

  // First 10 bytes now, the rest later: a pipe read can split a beacon
  // even though the write was atomic.  The monitor must stitch the parts.
  ASSERT_EQ(::write(hb.write_fd, frame, 10), 10);
  monitor.poll(0.1);
  EXPECT_EQ(monitor.last_step(4), before);

  ASSERT_EQ(::write(hb.write_fd, frame + 10, kBeaconBytes - 10),
            static_cast<ssize_t>(kBeaconBytes - 10));
  monitor.poll(0.2);
  EXPECT_EQ(monitor.last_step(4), 9);
}

}  // namespace
}  // namespace liveness
}  // namespace subsonic
