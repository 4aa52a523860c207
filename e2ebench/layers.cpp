#include "layers.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "src/comm/rendezvous.hpp"
#include "src/comm/tcp_endpoint.hpp"
#include "src/io/checkpoint.hpp"
#include "src/runtime/launcher.hpp"
#include "src/telemetry/summary.hpp"
#include "src/telemetry/telemetry.hpp"

namespace e2e {

using subsonic::ComputeKind;
using subsonic::ComputePass;
using subsonic::NodeType;
using subsonic::Phase;

const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const std::vector<LayerMetricDef> defs = {
      {"solver.lb_collide_stream.ns_per_cell", "ns", "iso"},
      {"solver.lb_moments.ns_per_cell", "ns", "iso"},
      {"solver.filter_bc.ns_per_cell", "ns", "iso"},
      {"solver.fd_velocity.ns_per_cell", "ns", "iso"},
      {"solver.fd_density.ns_per_cell", "ns", "iso"},
      {"solver.ceiling_mlups", "Mcell/s", "iso"},
      {"solver.bytes_per_update", "B", "computed"},
      {"solver.t_calc_s", "s", "run"},
      {"solver.cohort_slowdown", "ratio", "run/iso"},
      {"exchange.pack_us_per_step", "us", "iso"},
      {"exchange.unpack_us_per_step", "us", "iso"},
      {"comm.msgs_per_step", "count", "run"},
      {"comm.doubles_per_step", "count", "run"},
      {"comm.t_com_s", "s", "run"},
      {"comm.recv_wait_s", "s", "run"},
      {"comm.pingpong_us.p50", "us", "iso"},
      {"comm.pingpong_us.p99", "us", "iso"},
      {"comm.pingpong_samples", "count", "iso"},
      {"comm.rendezvous_rtt_us", "us", "iso"},
      {"runtime.spawn_ms.fork", "ms", "iso"},
      {"runtime.spawn_ms.exec", "ms", "iso"},
      {"runtime.step_wall_ms.p50", "ms", "run"},
      {"runtime.step_wall_ms.p99", "ms", "run"},
      {"runtime.step_wall_samples", "count", "run"},
      {"runtime.imbalance", "ratio", "run"},
      {"runtime.unaccounted_frac", "ratio", "run"},
      {"runtime.restarts", "count", "run"},
      {"runtime.forks", "count", "run"},
      {"runtime.recovery_s", "s", "run"},
      {"io.dump_bytes", "B", "iso"},
      {"io.serialize_ms", "ms", "iso"},
      {"io.save_ms", "ms", "iso"},
      {"io.restore_ms", "ms", "iso"},
      {"io.ckpt_s", "s", "run"},
      {"telemetry.flush_us", "us", "iso"},
      {"telemetry.trace_overhead_pct", "%", "run"},
      {"perfmodel.f_measured", "ratio", "run"},
      {"perfmodel.f_predicted", "ratio", "run"},
      {"perfmodel.efficiency_wall", "ratio", "run"},
  };
  return defs;
}

namespace {

/// Calls `fn` (which returns one sample) at least `min_reps` times, then
/// until `budget_s` has passed or `max_reps` samples exist.
template <typename F>
std::vector<double> sample_for(double budget_s, int min_reps, int max_reps,
                               F&& fn) {
  std::vector<double> s;
  const std::int64_t t0 = mono_ns();
  while (static_cast<int>(s.size()) < max_reps &&
         (static_cast<int>(s.size()) < min_reps ||
          seconds_since(t0) < budget_s))
    s.push_back(fn());
  return s;
}

const char* kernel_metric(ComputeKind k) {
  switch (k) {
    case ComputeKind::kLbCollideStream:
      return "solver.lb_collide_stream.ns_per_cell";
    case ComputeKind::kLbMoments: return "solver.lb_moments.ns_per_cell";
    case ComputeKind::kFilterAndBc: return "solver.filter_bc.ns_per_cell";
    case ComputeKind::kFdVelocity: return "solver.fd_velocity.ns_per_cell";
    case ComputeKind::kFdDensity: return "solver.fd_density.ns_per_cell";
  }
  return "solver.unknown.ns_per_cell";
}

int ghost_of(const FluidParams& p, Method m) {
  return subsonic::required_ghost(m, p.filter_eps > 0.0);
}

/// The unit one rank process computes: the largest active rank's box on
/// the plain runtime, the fullest block on the blocked one.
template <int Dim>
struct Unit {
  using Traits = subsonic::DomainTraits<Dim>;
  typename Traits::Box box;
  long long fluid = 0;
  std::vector<typename Traits::LinkPlan> links;
};

template <int Dim>
Unit<Dim> unit_of(const World<Dim>& w) {
  using Traits = subsonic::DomainTraits<Dim>;
  const int ghost = ghost_of(w.params, w.method);
  Unit<Dim> u;
  if (w.options.block_side != 0) {
    const auto bd = Traits::make_block_decomposition(
        w.mask, w.grid, w.options.block_side, ghost);
    int best = -1;
    for (int b = 0; b < bd.block_count(); ++b) {
      if (!bd.block_active(b)) continue;
      const long long n = w.mask.count_box(bd.box(b), NodeType::kFluid);
      if (n > u.fluid) {
        u.fluid = n;
        best = b;
      }
    }
    u.box = bd.box(best);
    u.links = Traits::make_block_links(bd, best, ghost, w.params);
  } else {
    const auto d = Traits::make_decomposition(w.mask, w.grid);
    const auto active_list = subsonic::active_ranks(d, w.mask);
    std::vector<bool> active(d.rank_count(), false);
    for (int r : active_list) active[r] = true;
    int best = -1;
    for (int r : active_list) {
      const long long n = w.mask.count_box(d.box(r), NodeType::kFluid);
      if (n > u.fluid) {
        u.fluid = n;
        best = r;
      }
    }
    u.box = d.box(best);
    u.links = Traits::make_links(d, best, ghost, w.params, active);
  }
  return u;
}

/// Fluid cells of each rank, indexed by rank.
template <int Dim>
std::map<int, long long> fluid_per_rank(const World<Dim>& w) {
  using Traits = subsonic::DomainTraits<Dim>;
  std::map<int, long long> out;
  if (w.options.block_side != 0) {
    const auto bd = Traits::make_block_decomposition(
        w.mask, w.grid, w.options.block_side, ghost_of(w.params, w.method));
    for (int b = 0; b < bd.block_count(); ++b)
      if (bd.block_active(b))
        out[bd.owner(b)] += w.mask.count_box(bd.box(b), NodeType::kFluid);
  } else {
    const auto d = Traits::make_decomposition(w.mask, w.grid);
    for (int r : subsonic::active_ranks(d, w.mask))
      out[r] = w.mask.count_box(d.box(r), NodeType::kFluid);
  }
  return out;
}

/// Padded elements of one field of `d` (pitch times the padded rows).
template <typename Domain>
double padded_elements(const Domain& d, subsonic::FieldId id) {
  const int g = d.ghost();
  if constexpr (std::is_same_v<Domain, subsonic::Domain2D>)
    return static_cast<double>(d.field(id).pitch()) * (d.ny() + 2 * g);
  else
    return static_cast<double>(d.field(id).pitch()) * (d.ny() + 2 * g) *
           (d.nz() + 2 * g);
}

template <int Dim>
void measure_solver(typename subsonic::DomainTraits<Dim>::Domain& d,
                    const Unit<Dim>& unit, Method method, double budget_s,
                    Tracer* tracer, std::map<std::string, double>& out) {
  using Traits = subsonic::DomainTraits<Dim>;
  const auto schedule = Traits::make_schedule(method);
  int phases = 0;
  for (const Phase& p : schedule) phases += p.kind == Phase::Kind::kCompute;
  double sum_ns = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Phase& p = schedule[i];
    if (p.kind != Phase::Kind::kCompute) continue;
    // The overlap schedule splits a phase that feeds an exchange into
    // band + interior passes; the others run whole.
    const bool split = i + 1 < schedule.size() &&
                       schedule[i + 1].kind == Phase::Kind::kExchange;
    const char* name = kernel_metric(p.compute);
    Span span(tracer, "solver", std::string("solver.run_compute:") + name);
    auto once = [&]() {
      const std::int64_t t0 = mono_ns();
      if (split) {
        Traits::run_compute(d, p.compute, ComputePass::kBand);
        Traits::run_compute(d, p.compute, ComputePass::kInterior);
      } else {
        Traits::run_compute(d, p.compute, ComputePass::kFull);
      }
      return static_cast<double>(mono_ns() - t0) /
             static_cast<double>(unit.fluid);
    };
    once();  // warm
    const double ns = median(sample_for(budget_s / phases, 5, 2000, once));
    out[name] += ns;
    sum_ns += ns;
  }
  out["solver.ceiling_mlups"] = 1e3 / sum_ns;

  // State bytes per update, computed from the array sizes: every macro
  // field and population array, both buffers, over the padded storage.
  double elements = 0;
  for (subsonic::FieldId id : Traits::macro_fields())
    elements += 2 * padded_elements(d, id);
  for (int i = 0; i < d.q(); ++i)
    elements += 2 * padded_elements(d, subsonic::population(i));
  out["solver.bytes_per_update"] =
      elements * sizeof(double) / static_cast<double>(unit.fluid);
}

template <int Dim>
void measure_exchange(typename subsonic::DomainTraits<Dim>::Domain& d,
                      const Unit<Dim>& unit, Method method, double budget_s,
                      Tracer* tracer, std::map<std::string, double>& out) {
  using Traits = subsonic::DomainTraits<Dim>;
  std::vector<std::pair<std::vector<subsonic::FieldId>,
                        std::vector<std::vector<double>>>>
      phases;
  for (const Phase& p : Traits::make_schedule(method)) {
    if (p.kind != Phase::Kind::kExchange) continue;
    std::vector<std::vector<double>> incoming;
    for (const auto& link : unit.links)
      incoming.push_back(Traits::pack(d, p.fields, link.recv_box));
    phases.emplace_back(p.fields, std::move(incoming));
  }
  {
    Span span(tracer, "runtime", "runtime.exchange.pack");
    out["exchange.pack_us_per_step"] =
        median(sample_for(budget_s / 2, 5, 5000, [&]() {
          const std::int64_t t0 = mono_ns();
          for (const auto& [fields, incoming] : phases)
            for (const auto& link : unit.links)
              if (Traits::pack(d, fields, link.send_box).size() !=
                  fields.size() *
                      static_cast<std::size_t>(link.send_box.count()))
                throw std::runtime_error("pack returned a short payload");
          return static_cast<double>(mono_ns() - t0) / 1e3;
        }));
  }
  {
    Span span(tracer, "runtime", "runtime.exchange.unpack");
    out["exchange.unpack_us_per_step"] =
        median(sample_for(budget_s / 2, 5, 5000, [&]() {
          const std::int64_t t0 = mono_ns();
          for (const auto& [fields, incoming] : phases)
            for (std::size_t l = 0; l < unit.links.size(); ++l)
              Traits::unpack(d, fields, unit.links[l].recv_box, incoming[l]);
          return static_cast<double>(mono_ns() - t0) / 1e3;
        }));
  }
}

/// Largest single message the unit sends in one exchange, in doubles.
template <int Dim>
std::size_t largest_message(const Unit<Dim>& unit, Method method) {
  std::size_t best = 1;
  for (const Phase& p : subsonic::DomainTraits<Dim>::make_schedule(method)) {
    if (p.kind != Phase::Kind::kExchange) continue;
    for (const auto& link : unit.links)
      best = std::max(best, p.fields.size() * static_cast<std::size_t>(
                                                  link.send_box.count()));
  }
  return best;
}

void measure_comm(std::size_t doubles, double budget_s, Tracer* tracer,
                  std::map<std::string, double>& out) {
  subsonic::rendezvous::Server server;
  {
    Span span(tracer, "comm", "comm.pingpong");
    subsonic::TcpEndpointOptions eo;
    eo.recv_deadline_ms = 10000;
    constexpr int kWarm = 20;
    // p99 needs ten samples beyond it, so at least 1000 rounds; the budget
    // allows more for small messages.
    const std::int64_t t_start = mono_ns();
    std::vector<double> rtt;
    std::exception_ptr own_error, peer_error;
    {
      subsonic::TcpEndpoint a(0, 2, server.endpoint(), eo);
      // Rank 0 decides the round count and announces it in each message's
      // first element (1 = another round follows, 0 = last).
      std::thread peer([&]() {
        try {
          subsonic::TcpEndpoint b(1, 2, server.endpoint(), eo);
          for (long i = 0;; ++i) {
            const subsonic::MessageTag tag = subsonic::make_tag(i, 0, 0);
            std::vector<double> m = b.recv(0, tag);
            const bool more = m[0] != 0.0;
            b.send(0, tag, std::move(m));
            if (!more) break;
          }
          b.flush();
        } catch (...) {
          peer_error = std::current_exception();
        }
      });
      try {
        std::vector<double> payload(doubles, 1.0);
        for (long i = 0;; ++i) {
          const bool more =
              i < kWarm + 1000 || (i < kWarm + 10000 &&
                                  seconds_since(t_start) < budget_s * 0.8);
          payload[0] = more ? 1.0 : 0.0;
          const subsonic::MessageTag tag = subsonic::make_tag(i, 0, 0);
          const std::int64_t t0 = mono_ns();
          a.send(1, tag, payload);
          const std::vector<double> echo = a.recv(1, tag);
          if (i >= kWarm)
            rtt.push_back(static_cast<double>(mono_ns() - t0) / 1e3);
          if (echo.size() != doubles)
            throw std::runtime_error("ping-pong echo has the wrong size");
          if (!more) break;
        }
        a.flush();
      } catch (...) {
        own_error = std::current_exception();
      }
      peer.join();  // on failure the peer's recv deadline ends it
    }
    if (own_error) std::rethrow_exception(own_error);
    if (peer_error) std::rethrow_exception(peer_error);
    out["comm.pingpong_us.p50"] = quantile(rtt, 0.5);
    out["comm.pingpong_us.p99"] = quantile(rtt, 0.99);
    out["comm.pingpong_samples"] = static_cast<double>(rtt.size());
  }
  {
    Span span(tracer, "comm", "comm.rendezvous");
    subsonic::rendezvous::Client client("127.0.0.1", server.port());
    subsonic::rendezvous::PeerAddr addr;
    out["comm.rendezvous_rtt_us"] =
        median(sample_for(budget_s * 0.2, 50, 20000, [&]() {
          const std::int64_t t0 = mono_ns();
          if (!client.publish(0, 7, "127.0.0.1", 4242) ||
              !client.lookup(0, 7, &addr) || addr.port != 4242)
            throw std::runtime_error("rendezvous publish/lookup failed");
          return static_cast<double>(mono_ns() - t0) / 1e3;
        }));
  }
}

void measure_spawn(double budget_s, Tracer* tracer,
                   std::map<std::string, double>& out) {
  namespace L = subsonic::launcher;
  const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  auto spawn_ms = [&](L::Launcher& launcher) {
    L::ChildSpec spec;
    spec.rank = 0;
    spec.host = "local";
    spec.stderr_fd = devnull;  // an exec child without a spec complains
    spec.entry = [](const subsonic::cohort::ChildConfig&) { ::_exit(0); };
    const std::int64_t t0 = mono_ns();
    const L::ChildHandle h = launcher.spawn(spec);
    int status = 0;
    launcher.reap(h, &status, true);
    return static_cast<double>(mono_ns() - t0) / 1e6;
  };
  {
    Span span(tracer, "runtime", "runtime.launcher.fork");
    L::ForkLauncher fork_launcher;
    out["runtime.spawn_ms.fork"] = median(sample_for(
        budget_s / 2, 10, 500, [&]() { return spawn_ms(fork_launcher); }));
  }
  {
    Span span(tracer, "runtime", "runtime.launcher.exec");
    L::ExecLauncher exec_launcher;
    out["runtime.spawn_ms.exec"] = median(sample_for(
        budget_s / 2, 10, 500, [&]() { return spawn_ms(exec_launcher); }));
  }
  if (devnull >= 0) ::close(devnull);
}

template <typename Domain>
void measure_io(Domain& d, const std::string& dir, double budget_s,
                Tracer* tracer, std::map<std::string, double>& out) {
  const std::string path = dir + "/unit.dump";
  {
    Span span(tracer, "io", "io.serialize_domain");
    std::size_t bytes = 0;
    out["io.serialize_ms"] = median(sample_for(budget_s / 3, 5, 500, [&]() {
      const std::int64_t t0 = mono_ns();
      bytes = subsonic::serialize_domain(d).size();
      return static_cast<double>(mono_ns() - t0) / 1e6;
    }));
    out["io.dump_bytes"] = static_cast<double>(bytes);
  }
  {
    Span span(tracer, "io", "io.save_domain");
    out["io.save_ms"] = median(sample_for(budget_s / 3, 5, 500, [&]() {
      const std::int64_t t0 = mono_ns();
      subsonic::save_domain(d, path);
      return static_cast<double>(mono_ns() - t0) / 1e6;
    }));
  }
  {
    Span span(tracer, "io", "io.restore_domain");
    out["io.restore_ms"] = median(sample_for(budget_s / 3, 5, 500, [&]() {
      const std::int64_t t0 = mono_ns();
      subsonic::restore_domain(d, path);
      return static_cast<double>(mono_ns() - t0) / 1e6;
    }));
  }
}

void measure_telemetry(const subsonic::telemetry::RankMetrics& rank,
                       const std::string& dir, double budget_s,
                       Tracer* tracer, std::map<std::string, double>& out) {
  namespace T = subsonic::telemetry;
  Span span(tracer, "telemetry", "telemetry.flush_metrics_delta");
  T::Session session;
  T::MetricsRegistry& reg = session.metrics();
  for (const auto& [name, v] : rank.counters) reg.counter(0, name).add(v);
  for (const auto& [name, g] : rank.gauges) reg.gauge(0, name).set(g.value);
  for (const auto& [name, t] : rank.timers)
    reg.timer(0, name).record(t.total_s);
  for (const auto& [name, h] : rank.histograms) reg.histogram(0, name).add(h);
  const std::string path = dir + "/rank_0.metrics.jsonl";
  session.flush_metrics_delta(path);
  // Each flush follows a flush interval's worth of activity: every timer
  // and histogram moved, every counter advanced.
  out["telemetry.flush_us"] = median(sample_for(budget_s, 20, 5000, [&]() {
    for (const auto& [name, t] : rank.timers) reg.timer(0, name).record(1e-4);
    for (const auto& [name, h] : rank.histograms)
      reg.histogram(0, name).record(1e-3);
    for (const auto& [name, v] : rank.counters) reg.counter(0, name).add(1);
    const std::int64_t t0 = mono_ns();
    session.flush_metrics_delta(path);
    const T::RankMetrics snap = T::collect_rank(reg, 0);
    const double us = static_cast<double>(mono_ns() - t0) / 1e3;
    if (snap.timers.size() != rank.timers.size())
      throw std::runtime_error("collect_rank lost timers");
    return us;
  }));
}

double parse_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

}  // namespace

template <int Dim>
std::map<std::string, double> measure_iso(
    const World<Dim>& w, const subsonic::telemetry::RankMetrics& rank_timers,
    const std::string& workroot, double budget_s, Tracer* tracer) {
  using Traits = subsonic::DomainTraits<Dim>;
  std::map<std::string, double> out;
  const Unit<Dim> unit = unit_of(w);
  const std::string dir = make_workdir(workroot, w.name + "-iso");
  {
    typename Traits::Domain d(w.mask, unit.box, w.params, w.method,
                              ghost_of(w.params, w.method), 1);
    if (w.method == Method::kLatticeBoltzmann) Traits::set_equilibrium(d);
    measure_solver<Dim>(d, unit, w.method, budget_s * 0.3, tracer, out);
    measure_exchange<Dim>(d, unit, w.method, budget_s * 0.1, tracer, out);
    measure_io(d, dir, budget_s * 0.2, tracer, out);
  }
  measure_comm(largest_message(unit, w.method), budget_s * 0.2, tracer, out);
  measure_spawn(budget_s * 0.15, tracer, out);
  measure_telemetry(rank_timers, dir, budget_s * 0.05, tracer, out);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

template <int Dim>
std::map<std::string, double> derive_run_metrics(
    const World<Dim>& w, const TracedRuns& runs,
    const std::map<std::string, double>& iso, Tracer* tracer) {
  namespace T = subsonic::telemetry;
  std::map<std::string, double> out;
  const ProcessRunResult& r = runs.traced.result;
  const auto cells = fluid_per_rank(w);

  double tcalc_max = 0, tcalc_sum = 0, tcom_max = 0, wait_max = 0;
  double ckpt_max = 0, accounted_max = 0, per_cell_ns_worst = 0;
  T::HistogramData step_wall;
  for (const T::RankMetrics& rm : r.rank_metrics) {
    const double tc = rm.t_calc();
    tcalc_sum += tc;
    tcalc_max = std::max(tcalc_max, tc);
    tcom_max = std::max(tcom_max, rm.t_com());
    const auto wt = rm.timers.find("transport.recv_wait");
    if (wt != rm.timers.end())
      wait_max = std::max(wait_max, wt->second.total_s);
    const double ck = rm.timer_total("ckpt.");
    ckpt_max = std::max(ckpt_max, ck);
    accounted_max = std::max(accounted_max, tc + rm.t_com() + ck);
    const long long steps = rm.counter_or("steps");
    const auto c = cells.find(rm.rank);
    if (steps > 0 && c != cells.end() && c->second > 0)
      per_cell_ns_worst = std::max(
          per_cell_ns_worst, tc * 1e9 / (static_cast<double>(steps) *
                                         static_cast<double>(c->second)));
    const auto h = rm.histograms.find("step.wall");
    if (h != rm.histograms.end()) {
      for (std::size_t i = 0; i < T::HistogramData::kBuckets; ++i)
        step_wall.buckets[i] += h->second.buckets[i];
      step_wall.count += h->second.count;
      step_wall.sum_s += h->second.sum_s;
    }
  }
  const double ranks = static_cast<double>(r.rank_metrics.size());
  out["solver.t_calc_s"] = tcalc_max;
  double iso_ns = 0;
  for (const LayerMetricDef& def : layer_metric_defs()) {
    const std::string name = def.name;
    if (name.ends_with(".ns_per_cell") && iso.count(name))
      iso_ns += iso.at(name);
  }
  if (iso_ns > 0) out["solver.cohort_slowdown"] = per_cell_ns_worst / iso_ns;
  out["comm.t_com_s"] = tcom_max;
  out["comm.recv_wait_s"] = wait_max;
  out["io.ckpt_s"] = ckpt_max;
  if (ranks > 0 && tcalc_sum > 0)
    out["runtime.imbalance"] = tcalc_max / (tcalc_sum / ranks);
  out["runtime.step_wall_ms.p50"] = step_wall.quantile_s(0.5) * 1e3;
  out["runtime.step_wall_ms.p99"] = step_wall.quantile_s(0.99) * 1e3;
  out["runtime.step_wall_samples"] = static_cast<double>(step_wall.count);
  out["runtime.unaccounted_frac"] =
      1.0 - accounted_max / (runs.traced.wall_s - runs.setup_s);
  out["runtime.restarts"] = r.restarts;
  out["runtime.forks"] = r.forks;

  // A killed rank's unflushed sends make the faulted run's message totals
  // timing-dependent; the fault-free twin gives the exact per-step counts.
  const bool recovery = w.expected_restarts() > 0;
  const ProcessRunResult& counted =
      recovery ? runs.fault_free.result : runs.traced.result;
  double msgs = 0, doubles = 0;
  for (const T::RankMetrics& rm : counted.rank_metrics) {
    msgs += static_cast<double>(rm.counter_or("transport.msgs_sent"));
    doubles += static_cast<double>(rm.counter_or("transport.doubles_sent"));
  }
  out["comm.msgs_per_step"] = msgs / w.steps;
  out["comm.doubles_per_step"] = doubles / w.steps;
  if (recovery)
    out["runtime.recovery_s"] = runs.traced.wall_s - runs.fault_free.wall_s;

  const double work = static_cast<double>(w.steps) *
                      static_cast<double>(w.fluid_cells);
  const double traced_mlups = work / runs.traced.wall_s / 1e6;
  const double untraced_mlups = work / runs.untraced.wall_s / 1e6;
  out["telemetry.trace_overhead_pct"] =
      (untraced_mlups - traced_mlups) / untraced_mlups * 100.0;
  {
    Span span(tracer, "perfmodel", "perfmodel.read_run_summary");
    out["perfmodel.f_measured"] =
        parse_number(runs.traced.summary_json, "measured_f");
    out["perfmodel.f_predicted"] =
        parse_number(runs.traced.summary_json, "predicted_f_shared_bus");
  }
  out["perfmodel.efficiency_wall"] =
      untraced_mlups / (r.processes * runs.serial_mlups);
  return out;
}

template std::map<std::string, double> measure_iso<2>(
    const World<2>&, const subsonic::telemetry::RankMetrics&,
    const std::string&, double, Tracer*);
template std::map<std::string, double> measure_iso<3>(
    const World<3>&, const subsonic::telemetry::RankMetrics&,
    const std::string&, double, Tracer*);
template std::map<std::string, double> derive_run_metrics<2>(
    const World<2>&, const TracedRuns&, const std::map<std::string, double>&,
    Tracer*);
template std::map<std::string, double> derive_run_metrics<3>(
    const World<3>&, const TracedRuns&, const std::map<std::string, double>&,
    Tracer*);

}  // namespace e2e
