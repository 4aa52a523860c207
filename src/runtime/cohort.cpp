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

std::string legacy_block_dump_path(const std::string& workdir, int block) {
  return workdir + "/block_" + std::to_string(block) + ".dump";
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

namespace {

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

/// SIGTERM rescue state: the handler publishes the metrics snapshot so
/// the supervisor can fold the work this rank did before being put down.
/// Deliberately not async-signal-safe — the process is about to die
/// either way (SIGKILL follows after the grace window), so the flush is
/// best-effort, never a correctness path.
telemetry::Session* g_term_session = nullptr;
std::string g_term_metrics_path;
std::string g_term_trace_path;  // empty: tracing off

void handle_sigterm(int) {
  if (g_term_session) {
    try {
      if (!g_term_metrics_path.empty())
        g_term_session->flush_metrics_delta(g_term_metrics_path);
      if (!g_term_trace_path.empty())
        g_term_session->write_trace_json(g_term_trace_path);
    } catch (...) {
    }
  }
  ::_exit(liveness::kTermAckExit);
}

void install_child_signal_handlers() {
  struct sigaction term = {};
  term.sa_handler = handle_sigterm;
  sigemptyset(&term.sa_mask);
  ::sigaction(SIGTERM, &term, nullptr);
  struct sigaction usr = {};
  usr.sa_handler = handle_sigusr1;
  sigemptyset(&usr.sa_mask);
  usr.sa_flags = SA_RESTART;
  ::sigaction(SIGUSR1, &usr, nullptr);
}

/// The hang fault: go completely silent and burn CPU forever — a
/// livelock the watchdog must catch.  hard=1 first ignores SIGTERM so
/// the supervisor's graceful rung falls through to SIGKILL.  Ignoring
/// (process-wide disposition), not sigprocmask (per-thread): the
/// endpoint's sender thread would otherwise take the process-directed
/// SIGTERM and defeat the fault.
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
/// stamped with the last completed step for the supervisor's live view.
/// Best-effort and observationally inert to the physics.
void publish_metrics(telemetry::Session& tel, int rank,
                     const std::string& path, long step) {
  tel.metrics().gauge(rank, "step").set(static_cast<double>(step));
  tel.flush_metrics_delta(path);
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
  const ChildConfig cfg = connect_socket_channels(cfg_in, registry);
  try {
    telemetry::SessionConfig tel_cfg;
    tel_cfg.trace = cfg.trace;
    tel_cfg.origin_ns = cfg.origin_ns;
    telemetry::Session session(tel_cfg);
    telemetry::Session* const tel = &session;
    set_log_context(cfg.rank);

    g_term_session = tel;
    g_term_metrics_path = metrics_path(workdir, cfg.rank);
    if (session.tracing()) g_term_trace_path = rank_trace_path(workdir, cfg.rank);
    install_child_signal_handlers();

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
      {
        telemetry::ScopedSpan span(tel, rcfg.rank, "ckpt.restore", "ckpt");
        for (int b : set.block_ids()) {
          auto& dom = set.domain_of_block(b);
          if (rcfg.restore_epoch >= 0) {
            restore_domain(
                dom, epoch::block_dump_path(workdir, b, rcfg.restore_epoch));
          } else {
            const std::string legacy = legacy_block_dump_path(workdir, b);
            std::ifstream probe(legacy, std::ios::binary);
            if (probe.good()) restore_domain(dom, legacy);
          }
        }
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
          publish_metrics(session, rcfg.rank, metrics_path(workdir, cfg.rank),
                          done);

        // A kill fault fires before this step's checkpoint work, so the
        // crash always loses whatever the stagger had not yet flushed.
        if (auto ks = faults.kill_step(rcfg.rank, round))
          if (done - rcfg.start_step >= *ks) ::raise(SIGKILL);
        if (auto hg = faults.hang_at(rcfg.rank, round))
          if (done - rcfg.start_step >= hg->step) enter_hang(hg->hard);
        if (auto ms = faults.mute_step(rcfg.rank, round))
          if (done - rcfg.start_step >= *ms) hb.mute();

        // Capture up to the run's end, segment boundaries included (the
        // boundary dump flushes in the exit path below) — a gap in the
        // epoch numbering would stall the supervisor's sequential commits.
        const long run_end = std::max(rcfg.final_target, rcfg.target_step);
        if (rcfg.checkpoint_interval > 0 &&
            (done - rcfg.start_step) % rcfg.checkpoint_interval == 0 &&
            done < run_end) {
          telemetry::ScopedSpan span(tel, rcfg.rank, "ckpt.capture", "ckpt",
                                     done);
          const long epoch_id =
              (done - rcfg.start_step) / rcfg.checkpoint_interval - 1;
          for (int i = 0; i < set.local_count(); ++i) {
            PendingBlockDump p;
            p.block = set.block_ids()[i];
            p.epoch = epoch_id;
            p.flush_step = done + rcfg.stagger_index;
            p.bytes = serialize_domain(set.domain(i));
            pending.push_back(std::move(p));
          }
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
      for (const PendingBlockDump& p : pending) {
        telemetry::ScopedSpan span(tel, rcfg.rank, "ckpt.flush", "ckpt",
                                   set.step());
        flush_block_dump(p, rcfg, workdir, faults);
      }

      // Drain the async send queue before the final dumps: a peer may
      // still be waiting on our final-step messages.
      {
        telemetry::ScopedSpan span(tel, rcfg.rank, "comm.flush", "comm",
                                   set.step());
        endpoint.flush();
      }
      {
        telemetry::ScopedSpan span(tel, rcfg.rank, "ckpt.final_save", "ckpt",
                                   set.step());
        for (int i = 0; i < set.local_count(); ++i)
          save_domain(set.domain(i),
                      legacy_block_dump_path(workdir, set.block_ids()[i]));
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
      if (!await_rollback_order(cfg, hb, &round, &restore_epoch)) ::_exit(1);
    }

    // The metrics snapshot is this rank's half of the supervisor's
    // run_summary.json; published last so it covers the whole cohort, and
    // only on a clean (or SIGTERM-rescued) exit — a SIGKILLed rank
    // contributes only its last periodic snapshot to the fold.
    publish_metrics(session, cfg.rank, metrics_path(workdir, cfg.rank),
                    cfg.target_step);
    if (session.tracing())
      session.write_trace_json(rank_trace_path(workdir, cfg.rank));
    ::_exit(0);
  } catch (const peer_lost_error& e) {
    // Expected when a neighbour dies unsupervised: report and exit so the
    // supervisor can restart the cohort.  Never hang.
    std::fprintf(stderr, "subprocess rank %d lost a peer: %s\n", cfg.rank,
                 e.what());
    ::_exit(3);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "subprocess rank %d failed: %s\n", cfg.rank,
                 e.what());
    ::_exit(1);
  } catch (...) {
    ::_exit(2);
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
