#include "src/runtime/cohort.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/comm/rendezvous.hpp"
#include "src/comm/tcp_endpoint.hpp"
#include "src/io/atomic_file.hpp"
#include "src/io/checkpoint.hpp"
#include "src/runtime/block_set.hpp"
#include "src/runtime/epoch_store.hpp"
#include "src/runtime/liveness.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/util/log.hpp"

namespace subsonic {
namespace cohort {

std::string metrics_path(const std::string& workdir, int rank) {
  return workdir + "/rank_" + std::to_string(rank) + ".metrics.jsonl";
}

std::string rank_trace_path(const std::string& workdir, int rank) {
  return workdir + "/rank_" + std::to_string(rank) + ".trace.json";
}

void tag_child_stderr(int fd, int rank) {
  std::string pending;
  char buf[512];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    pending.append(buf, static_cast<size_t>(n));
    size_t pos;
    while ((pos = pending.find('\n')) != std::string::npos) {
      std::fprintf(stderr, "[rank %d] %.*s\n", rank, static_cast<int>(pos),
                   pending.data());
      pending.erase(0, pos + 1);
    }
  }
  if (!pending.empty())
    std::fprintf(stderr, "[rank %d] %s\n", rank, pending.c_str());
  ::close(fd);
}

namespace {

/// A checkpoint of one block captured in memory at its epoch step but
/// flushed to disk a few steps later — the paper's orderly *staggered*
/// state saving.  Deferring only the write (never the capture) keeps every
/// block's dump for an epoch at the same logical step.
struct PendingBlockDump {
  int block = -1;
  long epoch = 0;
  long flush_step = 0;  ///< write once the blocks' step reaches this
  std::vector<char> bytes;
};

/// Writes one pending block dump.  A matching torn_dump fault writes only
/// the front half of the bytes straight to the final path (no tmp+rename)
/// and kills the process — simulating a rank dying mid-write without the
/// atomic protocol.  The supervisor must then treat the file as garbage.
void flush_block_dump(const PendingBlockDump& p, const ChildConfig& cfg,
                      const std::string& workdir, const FaultPlan& faults) {
  const std::string path = epoch::block_dump_path(workdir, p.block, p.epoch);
  if (faults.torn_dump(cfg.rank, p.epoch, cfg.generation)) {
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(p.bytes.data(),
               static_cast<std::streamsize>(p.bytes.size() / 2));
    torn.flush();
    ::raise(SIGKILL);
  }
  atomic_write_file(path, p.bytes.data(), p.bytes.size());
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- child-side liveness state -------------------------------------------

/// SIGUSR1 announces a rollback order, but the order frame itself
/// travels on the control pipe and can arrive before OR after the
/// signal (write() and kill() are not synchronised).  A plain boolean
/// flag races: a child parked on the pipe can consume the order, start
/// the recovery round, and only then receive the late SIGUSR1 — the
/// stale flag would abandon the fresh round into a wait for an order
/// that never comes.  So the handler counts signals and the main loop
/// counts consumed orders (the supervisor sends exactly one signal per
/// order); a rollback is pending only while signals lead orders.
/// Atomics, not sig_atomic_t: the transport's sender thread polls this
/// from abort_requested.
std::atomic<int> g_rollback_sig{0};
std::atomic<int> g_rollback_ack{0};

bool rollback_pending() {
  // Strictly greater: a child parked on the pipe can consume an order
  // before its signal lands, putting acks transiently AHEAD of signals —
  // that is a retired rollback, not a pending one.
  return g_rollback_sig.load(std::memory_order_relaxed) >
         g_rollback_ack.load(std::memory_order_relaxed);
}

void handle_sigusr1(int) {
  g_rollback_sig.fetch_add(1, std::memory_order_relaxed);
}

/// The rank's snapshot and trace writers (main thread, term_rescue) take
/// turns.
std::mutex g_publish_mu;
std::atomic<bool> g_exiting{false};  ///< the rank is on its way out

/// The SIGTERM rescue.  child_main blocks SIGTERM before the rank starts
/// any thread, so the signal waits for this thread's sigwait; it then
/// publishes the snapshot (and the trace), so the supervisor can fold the
/// work the rank did before being put down, and exits kTermAckExit.  Not
/// a handler: it may allocate and do stdio without deadlocking on a lock
/// the interrupted code held, and it runs while a hung main thread spins.
/// Returns only once g_exiting is set.
void term_rescue(telemetry::Session* tel, const std::string& metrics,
                 const std::string& trace) {
  sigset_t term;
  sigemptyset(&term);
  sigaddset(&term, SIGTERM);
  for (;;) {
    // A blocked SIGTERM is queued whatever its disposition, so the hard
    // hang fault's SIG_IGN is honoured here: SIGKILL must follow.
    int sig = 0;
    struct sigaction now = {};
    if (::sigwait(&term, &sig) != 0) continue;
    if (g_exiting) return;
    if (::sigaction(SIGTERM, nullptr, &now) == 0 && now.sa_handler != SIG_IGN)
      break;
  }
  std::lock_guard<std::mutex> lock(g_publish_mu);
  try {
    tel->flush_metrics_delta(metrics);
    if (!trace.empty()) tel->write_trace_json(trace);
  } catch (...) {
  }
  ::_exit(liveness::kTermAckExit);
}

/// Exits the rank with `code` once term_rescue has returned: no thread
/// outlives the body (a sanitizer's exit path would wait for it).
[[noreturn]] void exit_rank(std::thread& rescue, int code) {
  g_exiting = true;
  if (rescue.joinable()) {
    ::pthread_kill(rescue.native_handle(), SIGTERM);
    rescue.join();
  }
  ::_exit(code);
}

/// The hang fault: go completely silent and burn CPU forever — a
/// livelock the watchdog must catch.  hard=1 first ignores SIGTERM
/// process-wide (term_rescue honours the disposition) so the supervisor's
/// graceful rung falls through to SIGKILL.
[[noreturn]] void enter_hang(bool hard) {
  if (hard) ::signal(SIGTERM, SIG_IGN);
  for (;;) {
    volatile unsigned sink = 0;
    for (int i = 0; i < (1 << 16); ++i) sink = sink + static_cast<unsigned>(i);
  }
}

/// Reads the supervisor's rollback order (round + restore epoch) after a
/// round was abandoned.  The wait is sliced so the parked child keeps
/// beaconing — the supervisor's proof-of-life gate will not commit a
/// recovery (and so will not send the order) until every survivor has
/// beaconed after the casualty, so a silently parked child would
/// deadlock the recovery into its own hang detection.  Each consumed
/// order retires one expected SIGUSR1, keeping rollback_pending() false
/// for signals whose orders this child has already acted on.  False:
/// the control channel is gone — the supervisor died and the child has
/// nothing left to rejoin.
bool await_rollback_order(const ChildConfig& cfg, liveness::Emitter& hb,
                          int* round, long* restore_epoch) {
  if (cfg.control_fd < 0) return false;
  for (;;) {
    hb.wait_tick();
    pollfd p{cfg.control_fd, POLLIN, 0};
    const int n = ::poll(&p, 1, std::max(1, cfg.beacon_interval_ms));
    if (n > 0) break;
    if (n < 0 && errno != EINTR) return false;
  }
  liveness::RollbackMsg msg;
  const int consumed = liveness::read_rollback(cfg.control_fd, &msg);
  if (consumed == 0) return false;
  g_rollback_ack.fetch_add(consumed, std::memory_order_relaxed);
  *round = msg.round;
  *restore_epoch = msg.epoch;
  return true;
}

/// Publishes the rank's metrics snapshot (Session::flush_metrics_delta),
/// stamped with the last completed step for the supervisor's live view,
/// and its trace unless `trace` is empty.  Best-effort and
/// observationally inert to the physics.
void publish(telemetry::Session& tel, int rank, const std::string& metrics,
             const std::string& trace, long step) {
  std::lock_guard<std::mutex> lock(g_publish_mu);
  tel.metrics().gauge(rank, "step").set(static_cast<double>(step));
  tel.flush_metrics_delta(metrics);
  if (!trace.empty()) tel.write_trace_json(trace);
}

/// A child that inherited no heartbeat or control fd (-1: socket
/// channels, the transport for children that share no fds with the
/// supervisor) dials both at its registry, the supervisor's rendezvous
/// service.  The dialed sockets drop into the same ChildConfig slots the
/// pipe fds would occupy, so everything downstream (Emitter, rollback
/// polling) is transport-blind.  A no-op when the pipes were inherited.
ChildConfig connect_socket_channels(const ChildConfig& in,
                                    const std::string& registry) {
  ChildConfig cfg = in;
  if (cfg.heartbeat_fd >= 0 && cfg.control_fd >= 0) return cfg;
  rendezvous::Endpoint ep;
  if (!rendezvous::parse_registry(registry, &ep))
    throw std::runtime_error("bad channel endpoint: " + registry);
  if (cfg.heartbeat_fd < 0) {
    const int fd =
        rendezvous::Client::connect_channel(ep.host, ep.port, "HB", cfg.rank);
    if (fd >= 0) {
      // Beacons must never block the physics loop: the supervisor-side
      // reader can stall without stalling the step (pipes got O_NONBLOCK
      // from the supervisor; a dialed socket sets it here).
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      cfg.heartbeat_fd = fd;
    } else {
      // The Emitter no-ops on fd -1 and the watchdog escalates the
      // silence; log so the silent rank is diagnosable from stderr.
      std::fprintf(stderr, "subprocess rank %d: HB channel dial to %s:%d failed\n",
                   cfg.rank, ep.host.c_str(), ep.port);
    }
  }
  if (cfg.control_fd < 0) {
    const int fd =
        rendezvous::Client::connect_channel(ep.host, ep.port, "CTL", cfg.rank);
    if (fd >= 0)
      cfg.control_fd = fd;
    else
      std::fprintf(stderr, "subprocess rank %d: CTL channel dial to %s:%d failed\n",
                   cfg.rank, ep.host.c_str(), ep.port);
  }
  return cfg;
}

}  // namespace

template <int Dim>
[[noreturn]] void child_main(const typename DomainTraits<Dim>::Mask& mask,
                             const FluidParams& params, Method method,
                             const typename DomainTraits<Dim>::BlockDecomp& bd,
                             const ChildConfig& cfg_in,
                             const std::string& workdir,
                             const std::string& registry,
                             const FaultPlan& faults) {
  // Every path out of child_main ends in _exit, so these outlive it.
  telemetry::Session session({cfg_in.trace, cfg_in.origin_ns});
  telemetry::Session* const tel = &session;
  const std::string metrics = metrics_path(workdir, cfg_in.rank);
  const std::string trace =
      session.tracing() ? rank_trace_path(workdir, cfg_in.rank) : "";
  std::thread rescue;
  try {
    // SIGTERM stays blocked in every thread the rank starts from here on,
    // at its default disposition whatever the launcher left (only the
    // hard hang fault ignores it).
    sigset_t term;
    sigemptyset(&term);
    sigaddset(&term, SIGTERM);
    ::pthread_sigmask(SIG_BLOCK, &term, nullptr);
    ::signal(SIGTERM, SIG_DFL);
    rescue = std::thread(term_rescue, tel, metrics, trace);
    struct sigaction usr = {};
    usr.sa_handler = handle_sigusr1;
    sigemptyset(&usr.sa_mask);
    usr.sa_flags = SA_RESTART;
    ::sigaction(SIGUSR1, &usr, nullptr);

    const ChildConfig cfg = connect_socket_channels(cfg_in, registry);
    set_log_context(cfg.rank);

    liveness::Emitter hb(cfg.heartbeat_fd, cfg.rank, cfg.beacon_interval_ms);

    // One recovery round: build the blocks from scratch, restore, connect
    // under the round's registry, run to target.  Returns false when a
    // rollback order interrupted it.  Fresh blocks every round are what
    // make an in-process rollback bitwise identical to being re-forked.
    auto run_round = [&](int round, long restore_epoch) -> bool {
      ChildConfig rcfg = cfg;
      rcfg.generation = round;
      rcfg.restore_epoch = restore_epoch;

      BlockSet<Dim> set(mask, params, method, bd, rcfg.rank, rcfg.threads,
                        tel);
      if (rcfg.restore_epoch >= 0) {
        telemetry::ScopedSpan span(tel, rcfg.rank, "ckpt.restore", "ckpt");
        for (int b : set.block_ids())
          restore_domain(set.domain_of_block(b),
                         epoch::block_dump_path(workdir, b, rcfg.restore_epoch));
      }

      const int delay_ms = faults.delay_connect_ms(rcfg.rank, round);
      if (delay_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));

      const int slow_pm = faults.slow_permille(rcfg.rank, round);

      TcpEndpointOptions ep_options;
      ep_options.recv_deadline_ms = rcfg.recv_deadline_ms;
      ep_options.metrics = session.metrics_ptr();
      if (rcfg.heartbeat_fd >= 0 || rcfg.control_fd >= 0) {
        ep_options.wait_beacon = [&hb] { hb.wait_tick(); };
        ep_options.abort_requested = [] { return rollback_pending(); };
        ep_options.wait_slice_ms = std::max(1, rcfg.beacon_interval_ms);
      }
      TcpEndpoint endpoint(rcfg.rank, bd.rank_count(),
                           liveness::registry_for(registry, round),
                           ep_options);
      auto send = [&](int dst, MessageTag tag, std::vector<double> payload) {
        endpoint.send(dst, tag, std::move(payload));
      };
      auto recv = [&](int src, MessageTag tag) {
        return endpoint.recv(src, tag);
      };

      // Initial full sync seeds every block's ghost regions; the tag
      // carries the restore step, so a respawned cohort handshakes
      // consistently.
      {
        telemetry::ScopedSpan span(tel, rcfg.rank, "comm.sync", "comm",
                                   set.step());
        set.sync_all_fields(set.step(), send, recv);
      }

      std::vector<PendingBlockDump> pending;
      long next_epoch = rcfg.restore_epoch + 1;
      while (set.step() < rcfg.target_step) {
        if (rollback_pending()) return false;
        set_log_context(rcfg.rank, set.step());
        const auto step_t0 = std::chrono::steady_clock::now();
        set.step_once(rcfg.sched, send, recv, slow_pm);
        tel->metrics()
            .histogram(rcfg.rank, "step.wall")
            .record(seconds_since(step_t0));
        const long done = set.step();
        hb.emit(liveness::Phase::kStep, done);

        // Publish before the fault checks fire: a rank killed at this very
        // step still leaves this step's snapshot for the fold.
        if (rcfg.metrics_flush_interval > 0 &&
            (done - rcfg.start_step) % rcfg.metrics_flush_interval == 0)
          publish(session, rcfg.rank, metrics, "", done);

        // A kill fault fires before this step's checkpoint work, so the
        // crash always loses whatever the stagger had not yet flushed.
        if (auto ks = faults.kill_step(rcfg.rank, round))
          if (done - rcfg.start_step >= *ks) ::raise(SIGKILL);
        if (auto hg = faults.hang_at(rcfg.rank, round))
          if (done - rcfg.start_step >= hg->step) enter_hang(hg->hard);
        if (auto ms = faults.mute_step(rcfg.rank, round))
          if (done - rcfg.start_step >= *ms) hb.mute();

        // Capture on the interval grid and at the target step, whose
        // epoch is the cohort's final state (flushed in the exit path
        // below).  Every rank of a round restored the same epoch and
        // captures at the same steps, so they agree on each capture's id.
        if ((rcfg.checkpoint_interval > 0 &&
             (done - rcfg.start_step) % rcfg.checkpoint_interval == 0) ||
            done == rcfg.target_step) {
          telemetry::ScopedSpan span(tel, rcfg.rank, "ckpt.capture", "ckpt",
                                     done);
          for (int i = 0; i < set.local_count(); ++i) {
            PendingBlockDump p;
            p.block = set.block_ids()[i];
            p.epoch = next_epoch;
            p.flush_step = done + rcfg.stagger_index;
            p.bytes = serialize_domain(set.domain(i));
            pending.push_back(std::move(p));
          }
          ++next_epoch;
        }
        for (size_t i = 0; i < pending.size();) {
          if (done >= pending[i].flush_step) {
            telemetry::ScopedSpan span(tel, rcfg.rank, "ckpt.flush", "ckpt",
                                       done);
            flush_block_dump(pending[i], rcfg, workdir, faults);
            pending.erase(pending.begin() + static_cast<long>(i));
          } else {
            ++i;
          }
        }
      }
      set_log_context(rcfg.rank);
      // Drain the async send queue before the last dumps: a peer may
      // still be waiting on our final-step messages.
      {
        telemetry::ScopedSpan span(tel, rcfg.rank, "comm.flush", "comm",
                                   set.step());
        endpoint.flush();
      }
      for (const PendingBlockDump& p : pending) {
        telemetry::ScopedSpan span(tel, rcfg.rank, "ckpt.flush", "ckpt",
                                   set.step());
        flush_block_dump(p, rcfg, workdir, faults);
      }
      return true;
    };

    int round = cfg.generation;
    long restore_epoch = cfg.restore_epoch;
    for (;;) {
      hb.set_round(round);
      hb.emit(liveness::Phase::kStart, cfg.start_step);
      bool completed = false;
      try {
        completed = run_round(round, restore_epoch);
      } catch (const endpoint_aborted&) {
        completed = false;  // rollback order arrived mid-wait
      } catch (const peer_lost_error& e) {
        // A neighbour died under us.  Supervised, the watchdog is about
        // to order a rollback, so park on the control pipe instead of
        // exiting — this rank survives the recovery in-process.
        if (cfg.control_fd < 0) throw;
        std::fprintf(stderr,
                     "subprocess rank %d lost a peer (awaiting rollback): "
                     "%s\n",
                     cfg.rank, e.what());
        completed = false;
      }
      if (completed) break;
      if (!await_rollback_order(cfg, hb, &round, &restore_epoch))
        exit_rank(rescue, 1);
    }

    // The metrics snapshot is this rank's half of the supervisor's
    // run_summary.json; published last so it covers the whole cohort, and
    // only on a clean (or SIGTERM-rescued) exit — a SIGKILLed rank
    // contributes only its last periodic snapshot to the fold.
    publish(session, cfg.rank, metrics, trace, cfg.target_step);
    exit_rank(rescue, 0);
  } catch (const peer_lost_error& e) {
    // Expected when a neighbour dies unsupervised: report and exit so the
    // supervisor can restart the cohort.  Never hang.
    std::fprintf(stderr, "subprocess rank %d lost a peer: %s\n", cfg_in.rank,
                 e.what());
    exit_rank(rescue, 3);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "subprocess rank %d failed: %s\n", cfg_in.rank,
                 e.what());
    exit_rank(rescue, 1);
  } catch (...) {
    exit_rank(rescue, 2);
  }
}

template void child_main<2>(const Mask2D&, const FluidParams&, Method,
                            const BlockDecomposition2D&, const ChildConfig&,
                            const std::string&, const std::string&,
                            const FaultPlan&);
template void child_main<3>(const Mask3D&, const FluidParams&, Method,
                            const BlockDecomposition3D&, const ChildConfig&,
                            const std::string&, const std::string&,
                            const FaultPlan&);

}  // namespace cohort
}  // namespace subsonic
