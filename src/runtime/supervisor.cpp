// run_supervised<Dim>: the supervisor half of the process runtime
// (supervisor.hpp documents the contract).  Checkpoints and final dumps
// are per-*block* (owner-agnostic, so a restart works under any owner
// map); a plain run is the special case of one block per rank.  When
// rebalancing is enabled the run proceeds in segments of
// rebalance_interval steps — at each segment boundary every child has
// exited cleanly at the same step with its blocks' state on disk, the
// supervisor folds the segment's per-block compute timers into a
// rebalance decision, and the next segment's cohort starts under the
// (possibly rewritten) owner map.  Epoch ordering stays sound across
// segments because children number epochs from the run's global start
// step, and a mid-segment crash restores the newest committed epoch.
#include "src/runtime/supervisor.hpp"

#include <dirent.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "src/comm/http_status.hpp"
#include "src/io/checkpoint.hpp"
#include "src/runtime/cohort.hpp"
#include "src/runtime/cohort_lifecycle.hpp"
#include "src/runtime/epoch_store.hpp"
#include "src/runtime/launcher.hpp"
#include "src/runtime/rebalancer.hpp"
#include "src/runtime/status_board.hpp"
#include "src/telemetry/summary.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/util/check.hpp"
#include "src/util/fault_plan.hpp"

namespace subsonic {

namespace {

/// Resolves ProcessRunOptions::metrics_flush_interval: an explicit
/// positive option wins, negative disables, 0 follows the
/// SUBSONIC_METRICS_FLUSH environment variable (default 16; a
/// non-positive env value disables).  Returns the steps between periodic
/// publications, 0 = off.
int resolve_metrics_flush_interval(int option) {
  if (option > 0) return option;
  if (option < 0) return 0;
  const char* env = std::getenv("SUBSONIC_METRICS_FLUSH");
  if (!env || !*env) return 16;
  const int v = std::atoi(env);
  return v > 0 ? v : 0;
}

/// Resolves ProcessRunOptions::status_port into a bindable port: > 0 is
/// that port, 0 means "bind an ephemeral port", and -1 means "endpoint
/// off".  Option semantics: > 0 explicit, -1 force off, -2 force
/// ephemeral, 0 = SUBSONIC_STATUS_PORT env ("auto" = ephemeral,
/// unset/empty/non-positive = off).
int resolve_status_port(int option) {
  if (option > 0) return option;
  if (option == -1) return -1;
  if (option == kStatusPortEphemeral) return 0;
  const char* env = std::getenv("SUBSONIC_STATUS_PORT");
  if (!env || !*env) return -1;
  if (std::string(env) == "auto") return 0;
  const int v = std::atoi(env);
  return v > 0 ? v : -1;
}

/// Parses "<prefix><digits><suffix>" and returns the id, or -1 when
/// `name` has a different shape.
int parse_id_file(const std::string& name, const std::string& prefix,
                  const std::string& suffix) {
  if (name.size() <= prefix.size() + suffix.size()) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return -1;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return -1;
  for (char c : digits)
    if (!std::isdigit(static_cast<unsigned char>(c))) return -1;
  return std::atoi(digits.c_str());
}

/// Start-of-run hygiene beyond epoch::clear_run_state: every rank
/// metrics snapshot goes, with any ".tmp" a killed writer left (a
/// previous run in this directory may have used more ranks, or the other
/// dimension — the aggregation below must only ever see this run's
/// snapshots), every rank_<r>.dump goes (nothing here
/// restores one), and every block_<b>.dump that cannot belong to this
/// run's block geometry goes (other dimension, box, method or ghost
/// width, or a block out of range).  Children restore block dumps
/// blindly, so a stale one would abort the cohort — or resume this run
/// from another run's state.  Matching block dumps are kept: they are
/// what makes repeated calls continue a run.  Corrupt-but-matching-name
/// dumps are also kept, so a torn final dump still fails loudly instead
/// of silently restarting from scratch.
template <int Dim>
void clean_stale_artifacts(const std::string& workdir,
                           const typename DomainTraits<Dim>::BlockDecomp& bd,
                           Method method, int ghost) {
  using Traits = DomainTraits<Dim>;
  std::vector<std::string> names;
  if (DIR* dir = ::opendir(workdir.c_str())) {
    while (const dirent* entry = ::readdir(dir)) names.push_back(entry->d_name);
    ::closedir(dir);
  }
  for (const std::string& name : names) {
    if (name.find(".epoch_") != std::string::npos) continue;  // cleared already
    // ".trace.json" by substring: harvested partial traces of put-down
    // ranks carry a ".g<round>" infix (rank_0.g1.trace.json).
    if (parse_id_file(name, "rank_", ".metrics.jsonl") >= 0 ||
        parse_id_file(name, "rank_", ".metrics.jsonl.tmp") >= 0 ||
        name.find(".trace.json") != std::string::npos ||
        parse_id_file(name, "rank_", ".dump") >= 0) {
      std::remove((workdir + "/" + name).c_str());
      continue;
    }
    const int block = parse_id_file(name, "block_", ".dump");
    if (block < 0) continue;
    if (block >= bd.block_count() || !bd.block_active(block)) {
      std::remove((workdir + "/" + name).c_str());
      continue;
    }
    try {
      const CheckpointInfo info = inspect_checkpoint(workdir + "/" + name);
      if (!Traits::box_matches(info, bd.box(block)) ||
          info.method != static_cast<int>(method) || info.ghost != ghost)
        std::remove((workdir + "/" + name).c_str());
    } catch (const std::exception&) {
      // Unreadable or torn: keep it and let the restore report it.
    }
  }
}

}  // namespace

template <int Dim>
ProcessRunResult run_supervised(const typename DomainTraits<Dim>::Mask& mask,
                                const FluidParams& params, Method method,
                                const GridShape& grid, int steps,
                                const std::string& workdir,
                                const ProcessRunOptions& options) {
  using Traits = DomainTraits<Dim>;
  params.validate();
  SUBSONIC_REQUIRE(steps >= 1);
  SUBSONIC_REQUIRE(options.checkpoint_interval >= 0);
  SUBSONIC_REQUIRE(options.max_restarts >= 0);
  SUBSONIC_REQUIRE(options.recv_deadline_ms >= 0);
  SUBSONIC_REQUIRE(options.rebalance_interval >= 0);
  SUBSONIC_REQUIRE(options.rebalance_threshold >= 1.0);

  const int ghost = required_ghost(method, params.filter_eps > 0.0);
  const int side = resolve_block_side(options.block_side);
  SUBSONIC_REQUIRE_MSG(options.rebalance_interval == 0 || side != 0,
                       "rebalancing needs blocks to move: set "
                       "options.block_side != 0");
  typename Traits::BlockDecomp bd =
      Traits::make_block_decomposition(mask, grid, side, ghost);

  const FaultPlan faults = options.faults.empty()
                               ? FaultPlan::from_env()
                               : FaultPlan::parse(options.faults);

  // Fresh run-control state per run: stale ports.g<N> registries or a
  // stale status.port from a crashed prior run point at dead listeners;
  // stale epoch dumps or a stale MANIFEST belong to some previous run's
  // step numbering.  Port registration itself goes through the in-memory
  // rendezvous service, never the filesystem.
  cohort::Lifecycle::clean_run_control_files(workdir);
  epoch::clear_run_state(workdir);
  clean_stale_artifacts<Dim>(workdir, bd, method, ghost);
  std::remove((workdir + "/trace.json").c_str());
  std::remove((workdir + "/run_summary.json").c_str());
  std::remove((workdir + "/supervisor.metrics.jsonl").c_str());

  // The supervisor's own session: every child inherits its trace origin,
  // so the merged trace.json has one consistent timeline across ranks.
  const bool trace_on =
      options.trace > 0 ||
      (options.trace < 0 && telemetry::trace_enabled_from_env());
  telemetry::SessionConfig sup_cfg;
  sup_cfg.trace = trace_on;
  telemetry::Session supervisor(sup_cfg);

  std::vector<int> active_blocks;
  for (int b = 0; b < bd.block_count(); ++b)
    if (bd.block_active(b)) active_blocks.push_back(b);

  // Continuation runs resume from the final block dumps; probe the step
  // they carry so epochs and kill-step offsets count from there.
  long start_step = 0;
  if (!active_blocks.empty()) {
    try {
      start_step = inspect_checkpoint(cohort::legacy_block_dump_path(
                                          workdir, active_blocks[0]))
                       .step;
    } catch (const std::exception&) {
      start_step = 0;  // absent or unreadable: fresh run
    }
  }
  const long target_step = start_step + steps;

  ProcessRunResult result;
  result.blocks = bd.block_count();
  result.final_step = target_step;
  result.block_owner = bd.owner_map();
  if (active_blocks.empty()) return result;

  int generation = 0;        // counts every spawned cohort
  long committed_epoch = -1;  // newest MANIFEST-committed epoch

  const int flush_interval =
      resolve_metrics_flush_interval(options.metrics_flush_interval);

  // Cohort lifecycle: launcher selection, the rendezvous service the
  // ranks coordinate through, stderr tagging, failure reports — shared
  // across segments.
  cohort::Lifecycle::Setup lcs;
  lcs.workdir = workdir;
  lcs.trace_on = trace_on;
  lcs.dim = Dim;
  lcs.launcher = options.launcher;
  lcs.faults_spec = options.faults;
  lcs.faults = &faults;
  lcs.liveness = &options.liveness;
  cohort::Lifecycle lc(std::move(lcs));

  // The board is the run's one view of rank telemetry: it folds each
  // rank's metrics snapshot when a child dies or a segment ends, and its
  // view (folded totals plus the current snapshot) feeds the final
  // aggregation below.  The endpoint serves the same board, and only when
  // a status port was requested; neither can touch simulation state.
  liveness::StatusBoard board;
  {
    liveness::StatusBoard::Config bc;
    bc.workdir = workdir;
    bc.ranks = bd.active_ranks();
    for (int rank : bc.ranks) {
      double fluid = 0;
      for (int b : bd.blocks_of(rank))
        fluid += static_cast<double>(
            mask.count_box(bd.box(b), NodeType::kFluid));
      bc.fluid_cells.push_back(fluid);
    }
    bc.start_step = start_step;
    bc.target_step = target_step;
    bc.dims = Dim;
    bc.blocks = bd.block_count();
    bc.supervisor = &supervisor;
    bc.hosts.assign(bc.ranks.size(), lc.host_tag());
    bc.launcher = lc.launcher_name();
    board.configure(std::move(bc));
    board.set_owner_map(bd.owner_map());
  }
  std::unique_ptr<HttpStatusServer> http;
  const int want_port = resolve_status_port(options.status_port);
  if (want_port >= 0) {
    http = std::make_unique<HttpStatusServer>(
        want_port, [&board](const std::string& path, std::string* body,
                            std::string* ct) {
          return board.handle(path, body, ct);
        });
    std::ofstream pf(workdir + "/status.port", std::ios::trunc);
    pf << http->port() << "\n";
  }

  // Verify-and-commit: an epoch becomes restorable only once every
  // active block's dump for it exists, passes its CRC, and agrees on the
  // step counter.  Called from the supervision loop (cheap when the next
  // epoch is not complete yet) and once after any cohort ends.
  auto poll_epochs = [&]() {
    if (options.checkpoint_interval <= 0) return;
    for (;;) {
      const long e = committed_epoch + 1;
      long step = -1;
      bool complete = true;
      for (int b : active_blocks) {
        try {
          const CheckpointInfo info =
              inspect_checkpoint(epoch::block_dump_path(workdir, b, e));
          if (step < 0) step = info.step;
          complete = complete && info.step == step;
        } catch (const std::exception&) {
          complete = false;  // missing, torn, or corrupt: not this epoch
        }
        if (!complete) break;
      }
      if (!complete) return;
      epoch::Manifest m;
      m.epoch = e;
      m.step = step;
      m.ranks = active_blocks;  // block ids: the unit of every dump
      {
        telemetry::ScopedSpan span(&supervisor, -1, "ckpt.commit", "ckpt",
                                   step);
        epoch::commit_manifest(workdir, m);
      }
      committed_epoch = e;
      {
        telemetry::ScopedSpan span(&supervisor, -1, "ckpt.gc", "ckpt", step);
        epoch::gc_block_epochs(workdir, active_blocks, e);
      }
    }
  };

  // The ranks of the *last* segment, for the final aggregation below.
  std::vector<int> active_list = bd.active_ranks();
  result.processes = static_cast<int>(active_list.size());

  long cur_step = start_step;
  while (cur_step < target_step) {
    const long seg_target =
        options.rebalance_interval > 0
            ? std::min(target_step, cur_step + options.rebalance_interval)
            : target_step;
    active_list = bd.active_ranks();
    result.processes = static_cast<int>(active_list.size());

    // Exec children rebuild the segment's world from the spec file, so it
    // must carry the owner map in force *this* segment (rebalances rewrite
    // it between segments).
    if (lc.wants_spec()) {
      cohort::CohortSpec cs;
      cs.set_mask(mask);
      cs.method = method;
      cs.block_side = side;
      cs.grid = grid;
      cs.params = params;
      cs.owner = bd.owner_map();
      lc.write_spec(cs);
    }

    auto spawn_child = [&](int rank, int gen, long restore_epoch, int hb_fd,
                           int ctl_fd,
                           const std::vector<int>& close_in_child) -> pid_t {
      size_t stagger = 0;
      for (size_t i = 0; i < active_list.size(); ++i)
        if (active_list[i] == rank) stagger = i;
      cohort::ChildConfig cfg;
      cfg.rank = rank;
      cfg.generation = gen;
      cfg.target_step = seg_target;
      cfg.start_step = start_step;
      cfg.final_target = target_step;
      cfg.restore_epoch = restore_epoch;
      cfg.checkpoint_interval = options.checkpoint_interval;
      cfg.stagger_index = static_cast<int>(stagger);
      cfg.recv_deadline_ms = options.recv_deadline_ms;
      cfg.sched = options.sched;
      cfg.threads = options.threads;
      cfg.trace = trace_on;
      cfg.origin_ns = supervisor.origin_ns();
      cfg.heartbeat_fd = hb_fd;
      cfg.control_fd = ctl_fd;
      cfg.beacon_interval_ms = options.liveness.beacon_interval_ms;
      cfg.metrics_flush_interval = flush_interval;
      return lc.spawn(rank, std::move(cfg), close_in_child,
                      [&](const cohort::ChildConfig& final_cfg) {
                        cohort::child_main<Dim>(mask, params, method, bd,
                                                final_cfg, workdir,
                                                lc.registry(),
                                                faults);  // never returns
                      });
    };

    // A segment's first cohort resumes from the final block dumps the
    // previous segment left (or fresh); a mid-segment recovery resumes
    // from the newest committed epoch, because final dumps are only
    // consistent across blocks after a fully clean cohort exit.
    const int seg_start_gen = generation;
    liveness::EngineHooks hooks;
    hooks.spawn = spawn_child;
    hooks.poll_epochs = poll_epochs;
    hooks.committed_epoch = [&]() { return committed_epoch; };
    hooks.begin_generation = [&, seg_start_gen](int gen, long epoch) {
      // Fresh per-round registrations; the previous round's entries point
      // at listeners that are dead or about to be torn down.
      lc.begin_generation(gen);
      if (epoch < 0 && gen > seg_start_gen && cur_step == 0) {
        // Epoch-less recovery of a fresh run replays from scratch: a
        // block whose owner already finished the segment carries a
        // diverged step counter and must be re-simulated, not restored.
        // Fresh runs only — a continuation's final dumps ARE the
        // starting state.
        for (int b : active_blocks) {
          const std::string dump = cohort::legacy_block_dump_path(workdir, b);
          try {
            if (inspect_checkpoint(dump).step != 0) std::remove(dump.c_str());
          } catch (const std::exception&) {
            // Absent or torn: the restore path handles it.
          }
        }
      }
    };
    hooks.on_rank_down = [&](int rank, bool flushed) {
      board.fold(rank, !flushed);
      lc.harvest_trace(rank);
    };
    hooks.host_of = [&](int) { return lc.host_tag(); };
    if (lc.socket_channels())
      hooks.adopt_channels = [&](int rank) { return lc.adopt_channels(rank); };
    hooks.on_liveness = [&board](const telemetry::LivenessRecord& lr) {
      board.on_liveness(lr);
    };
    hooks.fail = [&](const std::vector<liveness::EngineFailure>& fails) {
      lc.fail(fails, result.restarts);
    };

    {
      liveness::CohortEngine engine(active_list, options.liveness,
                                    options.max_restarts, std::move(hooks),
                                    &supervisor, &result.liveness,
                                    &result.restarts, &result.forks);
      try {
        engine.run(&generation, -1);
      } catch (const launcher::SpawnError& e) {
        lc.join_taggers();
        lc.fail_spawn(e, result.restarts);
      } catch (...) {
        lc.join_taggers();
        throw;
      }
    }
    poll_epochs();
    cur_step = seg_target;

    // Between segments, fold each rank's snapshot into the board's totals
    // (the next cohort's children publish fresh ones), and feed the
    // segment's per-block compute timers to the rebalance decision.  The
    // last segment's snapshots stay on disk as the run's per-rank record.
    if (cur_step < target_step) {
      std::vector<BlockCost> costs;
      costs.reserve(active_blocks.size());
      for (int rank : active_list) {
        const telemetry::RankMetrics rm = board.fold(rank, false);
        for (int b : bd.blocks_of(rank)) {
          BlockCost c;
          c.block = b;
          c.cells = bd.block_cells(b);
          const auto it =
              rm.timers.find("compute.block_" + std::to_string(b));
          if (it != rm.timers.end()) c.t_calc_s = it->second.total_s;
          costs.push_back(c);
        }
      }
      const RebalanceDecision decision =
          propose_rebalance(bd.owner_map(), costs, bd.rank_count(),
                            options.rebalance_threshold);
      if (decision.rebalance) {
        bd.set_owner_map(decision.owner);
        telemetry::RebalanceRecord rec;
        rec.step = cur_step;
        rec.moved_blocks = static_cast<int>(decision.moves.size());
        rec.imbalance_before = decision.imbalance_before;
        rec.imbalance_after = decision.imbalance_after;
        result.rebalances.push_back(rec);
        board.on_rebalance(rec);
        board.set_owner_map(bd.owner_map());
        supervisor.metrics().counter(-1, "rebalance.count").add();
        supervisor.metrics()
            .counter(-1, "rebalance.moved_blocks")
            .add(rec.moved_blocks);
        std::fprintf(stderr,
                     "[supervisor] rebalance at step %ld: %d block(s) move, "
                     "imbalance %.2f -> %.2f\n",
                     rec.step, rec.moved_blocks, rec.imbalance_before,
                     rec.imbalance_after);
      }
    }
  }
  lc.join_taggers();
  std::remove((workdir + "/cohort.spec").c_str());
  board.set_done(true);
  result.committed_epoch = committed_epoch;
  result.block_owner = bd.owner_map();

  // Read the common step counter back from any block dump.  A torn final
  // dump fails the run here (checkpoint_error) rather than hiding.
  result.final_step =
      inspect_checkpoint(
          cohort::legacy_block_dump_path(workdir, active_blocks[0]))
          .step;

  // Aggregate the board's view of every rank into run_summary.json: the
  // measured T_calc / T_com next to the paper model's predicted f.
  std::vector<telemetry::RankMetrics> rank_metrics;
  rank_metrics.reserve(active_list.size());
  for (int rank : active_list) rank_metrics.push_back(board.view(rank));

  telemetry::RunModelInputs model;
  model.dims = Dim;
  model.processes = static_cast<int>(active_list.size());
  double owned_nodes = 0;
  for (int b : active_blocks)
    owned_nodes += static_cast<double>(bd.box(b).count());
  model.nodes_per_rank = owned_nodes / static_cast<double>(active_list.size());
  // Doubles shipped per boundary node per step, from the schedule actually
  // run: each exchange phase ships |fields| doubles per node per ghost
  // layer.
  double doubles_per_node = 0;
  for (const Phase& phase : Traits::make_schedule(method))
    if (phase.kind == Phase::Kind::kExchange)
      doubles_per_node += static_cast<double>(phase.fields.size());
  model.comm_doubles_per_node = doubles_per_node * ghost;
  model.rank_weights.reserve(active_list.size());
  for (int rank : active_list) {
    double fluid = 0;
    for (int b : bd.blocks_of(rank))
      fluid += static_cast<double>(
          mask.count_box(bd.box(b), NodeType::kFluid));
    model.rank_weights.push_back(fluid);
  }

  telemetry::RunSummary summary =
      telemetry::summarize_run(rank_metrics, model, result.restarts);
  result.rank_metrics = std::move(rank_metrics);
  summary.blocks = bd.block_count();
  summary.rebalances = result.rebalances;
  summary.liveness = result.liveness;
  result.summary_path = workdir + "/run_summary.json";
  telemetry::write_run_summary(summary, result.summary_path);
  supervisor.flush_metrics_delta(workdir + "/supervisor.metrics.jsonl");
  if (trace_on) {
    std::vector<std::string> traces = lc.harvested_traces();
    traces.reserve(traces.size() + active_list.size());
    for (int rank : active_list)
      traces.push_back(cohort::rank_trace_path(workdir, rank));
    telemetry::merge_chrome_traces(traces, workdir + "/trace.json");
  }
  if (http) {
    http.reset();  // stop serving before the port file disappears
    std::remove((workdir + "/status.port").c_str());
  }
  return result;
}

template ProcessRunResult run_supervised<2>(const Mask2D&, const FluidParams&,
                                            Method, const GridShape&, int,
                                            const std::string&,
                                            const ProcessRunOptions&);
template ProcessRunResult run_supervised<3>(const Mask3D&, const FluidParams&,
                                            Method, const GridShape&, int,
                                            const std::string&,
                                            const ProcessRunOptions&);

}  // namespace subsonic
