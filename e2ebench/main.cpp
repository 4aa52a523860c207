// e2ebench: whole-run benchmark of the supervised runtime.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--short]
//
// Run from the repository root: workdirs go to .bench_build/e2ebench-work
// and traces to .bench_build/e2ebench-trace.  --short (the self-check)
// runs a few steps per call.
//
// --trace 0 measures the end-to-end metrics with tracing off: rounds of a
// serial run, a 1-step set-up call and a timed call, for --seconds, each
// call checked bit for bit against the serial baseline.  --trace 1 makes
// one traced call (plus its untraced and, for the recovery workload,
// fault-free twins) and the iso layer measurements, prints the per-layer
// metrics and writes the combined trace.  The last stdout line is one
// JSON object; any failed check makes the exit code non-zero.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "spans.hpp"
#include "src/solver/simd.hpp"
#include "src/util/provenance.hpp"
#include "workloads.hpp"

extern char** environ;

namespace e2e {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
};

const std::string kWorkroot = ".bench_build/e2ebench-work";
const std::string kOutdir = ".bench_build/e2ebench-trace";

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--short]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--short") {
      a.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!have_workload || workload_dim(a.workload) == 0)
    usage("--workload must be one of flue2d_lb, duct3d_lb, "
          "flue2d_fd_recovery");
  if (!have_seed) usage("--seed is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Children inherit the environment, and SUBSONIC_SIMD / SUBSONIC_THREADS
/// / SUBSONIC_LOG have no option that overrides them.
void unset_subsonic_env() {
  std::vector<std::string> names;
  for (char** e = environ; e && *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("SUBSONIC_", 0) == 0)
      names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) {
    std::fprintf(stderr, "e2ebench: unset %s\n", n.c_str());
    ::unsetenv(n.c_str());
  }
}

std::string provenance_line() {
  const subsonic::Provenance p = subsonic::collect_provenance();
  std::string json = subsonic::provenance_json(p);
  const std::size_t close = json.rfind('}');
  char extra[160];
  std::snprintf(extra, sizeof extra, ", \"simd\": \"%s\", \"nproc\": %ld",
                subsonic::simd_name(subsonic::active_simd()),
                ::sysconf(_SC_NPROCESSORS_ONLN));
  if (close != std::string::npos) json.insert(close, extra);
  return json;
}

struct Tally {
  int attempted = 0;
  int failed = 0;
  void add(const CallOutcome& o, const char* what) {
    ++attempted;
    if (o.ok) return;
    ++failed;
    std::fprintf(stderr, "e2ebench: FAILED %s: %s\n", what, o.why.c_str());
  }
};

void print_result(const Tally& tally, bool correct,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// A fault-free 1-step call: one sample of the fixed per-run cost.
template <int Dim>
void setup_call(const World<Dim>& w, const Baseline& base, Tracer* tr,
                Tally& tally, std::vector<double>& walls) {
  const CallOutcome o =
      call_supervised(w, 1, w.options, 0, base.at_one, kWorkroot, tr, false);
  tally.add(o, "set-up call");
  if (o.ok) walls.push_back(o.wall_s);
}

/// Quantile of segment times that serial_mlups reports.
constexpr double kSerialSegmentQuantile = 0.9;

/// Serial rate of the workload for a serial run whose segment k took
/// `runs[r][k]`: each segment's time is its kSerialSegmentQuantile
/// quantile over the runs.  The host's other load comes and goes within
/// a second, so a segment's fastest time depends on whether a quiet moment
/// happened to fall on it, while its slow quantile is the loaded rate that
/// every stretch of the measurement window holds (README.md, "Noise").
/// Taken per segment rather than over whole runs, because the FD rate
/// changes as its flow develops.
template <int Dim>
double serial_mlups(const World<Dim>& w,
                    const std::vector<std::vector<double>>& runs) {
  double total = 0;
  for (std::size_t k = 0; k < runs.front().size(); ++k) {
    std::vector<double> times;
    for (const std::vector<double>& r : runs) times.push_back(r[k]);
    total += quantile(times, kSerialSegmentQuantile);
  }
  return static_cast<double>(w.steps) * static_cast<double>(w.fluid_cells) /
         total / 1e6;
}

/// --trace 0: rounds of a serial run, a set-up call and a timed call
/// within --seconds of `t0`.  The samples interleave, so every metric sees
/// the same stretch of host load.
template <int Dim>
std::vector<Metric> end_to_end(const Args& a, const World<Dim>& w,
                               const Baseline& base,
                               const std::vector<double>& first_serial,
                               std::int64_t t0, Tally& tally) {
  const double work =
      static_cast<double>(w.steps) * static_cast<double>(w.fluid_cells);
  std::vector<double> setup, mlups, cpu_ns,
      serial = {serial_mlups(w, {first_serial})};
  std::vector<std::vector<double>> segments = {first_serial};
  const int min_rounds = a.short_mode ? 1 : 3;
  // A round starts only if one as long as the last still fits the window.
  double last_round_s = seconds_since(t0);
  for (int round = 0; round < min_rounds ||
                      seconds_since(t0) + last_round_s <= a.seconds;
       ++round) {
    const std::int64_t round_t0 = mono_ns();
    if (round > 0) {
      segments.push_back(serial_run(w, nullptr, nullptr));
      serial.push_back(serial_mlups(w, {segments.back()}));
      ::malloc_trim(0);
    }
    setup_call(w, base, nullptr, tally, setup);
    const CallOutcome o =
        call_supervised(w, w.steps, w.faulted_options(), w.expected_restarts(),
                        base.at_steps, kWorkroot, nullptr, false);
    tally.add(o, "timed call");
    if (o.ok) {
      mlups.push_back(work / o.wall_s / 1e6);
      cpu_ns.push_back(o.cpu_s * 1e9 / work);
    }
    last_round_s = seconds_since(round_t0);
  }
  auto print_samples = [](const char* what, const std::vector<double>& v) {
    std::printf("%s:", what);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_samples("set-up calls (s)", setup);
  print_samples("timed calls (Mcell/s)", mlups);
  print_samples("serial runs (Mcell/s)", serial);

  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  const std::vector<Metric> metrics = {
      {"mlups", "Mcell/s", median(mlups)},
      {"setup_s", "s", median(setup)},
      {"serial_mlups", "Mcell/s", serial_mlups(w, segments)},
      {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0},
      {"cpu_ns_per_update", "ns", median(cpu_ns)},
  };
  std::printf("%-28s %14s  %-8s\n", "metric", "value", "unit");
  for (const Metric& m : metrics)
    std::printf("%-28s %14.6g  %-8s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("%-28s %14.6g  %-8s %d of %d calls failed\n", "fail_ratio",
              static_cast<double>(tally.failed) / tally.attempted, "ratio",
              tally.failed, tally.attempted);
  return metrics;
}

/// --trace 1: the traced call and its twins, the iso measurements, the
/// per-layer table, the combined trace and the self-time table.
template <int Dim>
std::vector<Metric> per_layer(const Args& a, const World<Dim>& w,
                              const Baseline& base,
                              const std::vector<double>& first_serial,
                              std::int64_t t0, Tracer& tracer, Tally& tally) {
  TracedRuns runs;
  std::vector<double> setup;
  for (int i = 0; i < (a.short_mode ? 1 : 3); ++i)
    setup_call(w, base, &tracer, tally, setup);
  runs.setup_s = median(setup);
  runs.serial_mlups = serial_mlups(w, {first_serial});

  ProcessRunOptions traced = w.faulted_options();
  traced.trace = 1;
  tracer.set_run(1);
  runs.traced = call_supervised(w, w.steps, traced, w.expected_restarts(),
                                base.at_steps, kWorkroot, &tracer, true);
  tally.add(runs.traced, "traced call");
  tracer.set_run(2);
  runs.untraced =
      call_supervised(w, w.steps, w.faulted_options(), w.expected_restarts(),
                      base.at_steps, kWorkroot, &tracer, false);
  tally.add(runs.untraced, "untraced twin");
  std::vector<ProgramTrace> program = {
      {runs.traced.trace_json, runs.traced.start_ns}};
  if (w.expected_restarts() > 0) {
    ProcessRunOptions clean = w.options;
    clean.trace = 1;
    tracer.set_run(3);
    runs.fault_free = call_supervised(w, w.steps, clean, 0, base.at_steps,
                                      kWorkroot, &tracer, true);
    tally.add(runs.fault_free, "fault-free twin");
    program.push_back({runs.fault_free.trace_json, runs.fault_free.start_ns});
  }
  tracer.set_run(0);

  std::map<std::string, double> values;
  if (tally.failed == 0) {
    const auto& ranks = runs.traced.result.rank_metrics;
    values = measure_iso(
        w, ranks.empty() ? subsonic::telemetry::RankMetrics{} : ranks.front(),
        kWorkroot, std::max(2.0, a.seconds - seconds_since(t0)), &tracer);
    for (const auto& [k, v] : derive_run_metrics(w, runs, values, &tracer))
      values[k] = v;
  }

  std::vector<Metric> metrics;
  std::printf("%-40s %14s  %-8s %s\n", "metric", "value", "unit", "source");
  for (const LayerMetricDef& def : layer_metric_defs()) {
    const auto it = values.find(def.name);
    metrics.push_back({def.name, def.unit,
                       it != values.end() ? it->second : 0.0});
    if (it != values.end())
      std::printf("%-40s %14.6g  %-8s %s\n", def.name, it->second, def.unit,
                  def.source);
    else
      std::printf("%-40s %14s  %-8s %s\n", def.name, "n/a", def.unit,
                  def.source);
  }

  const std::string dir =
      kOutdir + "/" + w.name + "-seed" + std::to_string(a.seed);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/trace.json") << tracer.chrome_json(program);
  std::ofstream(dir + "/provenance.json") << provenance_line() << "\n";
  std::ofstream table(dir + "/layers.tsv");
  table << "layer\tself_s\n";
  std::printf("\nbenchmark self time by layer (span minus covered child "
              "spans):\n");
  for (const auto& [layer, s] : tracer.self_seconds_by_layer()) {
    table << layer << "\t" << s << "\n";
    std::printf("  %-12s %10.4f s\n", layer.c_str(), s);
  }
  std::printf("wrote %s/{trace.json,layers.tsv,provenance.json}\n",
              dir.c_str());
  return metrics;
}

template <int Dim>
int bench(const Args& a) {
  const World<Dim> w = [&a] {
    if constexpr (Dim == 2)
      return make_world2(a.workload, a.seed, a.short_mode);
    else
      return make_world3(a.workload, a.seed, a.short_mode);
  }();
  std::printf("workload %s: steps=%d fluid_cells=%lld drive=%.6g",
              w.name.c_str(), w.steps, w.fluid_cells, w.seeded.drive);
  if (w.seeded.kill_rank >= 0)
    std::printf(" kill=rank%d@step%ld", w.seeded.kill_rank,
                w.seeded.kill_step);
  std::printf("\n");

  Tracer tracer;
  Tally tally;
  // The first serial run also captures the reference fields.  Serial runs
  // cover the same steps as a timed call: FD slows down as its waves
  // spread, so a shorter serial run would not be comparable.
  // The measurement window starts with it.
  const std::int64_t t0 = mono_ns();
  Baseline base;
  const std::vector<double> first_serial =
      serial_run(w, a.trace ? &tracer : nullptr, &base);
  ::malloc_trim(0);  // the ranks fork from this process

  const std::vector<Metric> metrics =
      a.trace ? per_layer(a, w, base, first_serial, t0, tracer, tally)
              : end_to_end(a, w, base, first_serial, t0, tally);
  bool correct = tally.failed == 0;
  if (!a.trace)
    for (const Metric& m : metrics)
      correct = correct && std::isfinite(m.value) && m.value > 0;
  print_result(tally, correct, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Args a = parse_args(argc, argv);
  unset_subsonic_env();
  // Large buffers come from mmap and go back to the kernel when freed, so
  // the ranks forked from this process do not inherit stale heap.
  ::mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.short_mode ? " short" : "");
  std::printf("provenance %s\n", provenance_line().c_str());
  std::fflush(stdout);
  try {
    return workload_dim(a.workload) == 3 ? bench<3>(a) : bench<2>(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: error: %s\n", e.what());
    return 2;
  }
}
