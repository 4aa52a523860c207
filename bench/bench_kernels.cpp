// Kernel-throughput suite: MLUPS (million lattice-site updates per
// second) for each hot kernel — FD velocity, FD density, LB
// collide+stream, LB moments, the fourth-order filter, and the filter
// plus boundary pass as the schedule's filter_bc phase runs them — across
// grid sizes and intra-subregion thread counts.  The kernels are written
// once over the dimension, and the 3D rows time their other instance:
// lb3d_collide_stream, lb3d_moments, fd3d_velocity and fd3d_density run at
// one thread on the duct3d_lb rank box — 32 x 48 x 48 of the 96 x 48 x 48
// channel, periodic in x, as the paper's 3 x 1 x 1 pipeline cuts it — and
// on a periodic 48^3 cube with the 2D rows' obstacle.  Their names match
// no schedule phase, so they do not change the 2D pricing below.  This
// measures the paper's U_calc directly: the overlap schedule
// (bench_overlap) hides T_com, so raising per-subregion compute
// throughput is the remaining lever on f = (1 + T_com/T_calc)^-1.  The rows named after a schedule
// phase (its "compute.*" timer without the prefix) are the ones
// KernelSpeedTable::node_rate composes into the cluster model's U_calc.
//
// The dispatched kernels — LB collide-stream and the filter — are
// additionally measured with the SIMD dispatch pinned (<kernel>_scalar /
// <kernel>_avx2, via set_simd) so the committed numbers separate the
// layout/fusion win from the vector win; the unsuffixed row is the
// auto-dispatched production path.
//
// Each case reports min-of-5 trial timing: five back-to-back trials of
// `reps` calls each, keeping the fastest trial.  The minimum is the
// right statistic for throughput on shared machines — slow trials
// measure the neighbours, not the kernel.  Every individual call across
// all trials is additionally recorded into a telemetry::Histogram, and
// the row reports per-call p50/p95/p99 next to the min — the robust
// percentile the perf model's node_rate can prefer over min-of-5 when
// the machine is noisy.
//
// Alongside MLUPS each row derives an effective bandwidth from a
// per-kernel streaming-traffic model (bytes_per_update: the distinct
// field values read plus written per interior site update, assuming
// stencil neighbours hit cache and no write-allocate overhead).  That
// is a lower bound on DRAM traffic — paths that ping-pong two buffers
// add read-for-ownership on the stores — so gbps is the *useful*
// bandwidth, comparable against the machine's streaming limit.
//
// Results print as a table and are written as JSON (default
// BENCH_kernels.json) with full machine/toolchain provenance, so the
// committed numbers stay interpretable across hosts — in particular,
// thread scaling is only meaningful when provenance.hardware_threads
// exceeds the case's thread count.
//
// Usage: bench_kernels [out.json] [--kernel=NAME] [--side=N]
//   --kernel substring-matches case names (e.g. --kernel=filter matches
//   the filter rows, both pinned variants and filter_bc); --side keeps
//   one 2D grid size.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/geometry/flue_pipe.hpp"
#include "src/geometry/mask.hpp"
#include "src/solver/domain.hpp"
#include "src/solver/fd.hpp"
#include "src/solver/filter.hpp"
#include "src/solver/lbm.hpp"
#include "src/solver/schedule.hpp"
#include "src/solver/simd.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/telemetry/summary.hpp"
#include "src/util/provenance.hpp"

namespace {

using namespace subsonic;

constexpr int kTrials = 5;

template <int Dim>
struct KernelCase {
  const char* name;
  Method method;
  // Interior site updates one call performs, as a multiple of the box's
  // node count (the filter runs three fields per call).
  int fields_per_call;
  // Distinct field values read + written per site update, times
  // sizeof(double) — the streaming-traffic model described above.
  int bytes_per_update;
  // Pin the SIMD dispatch for this case (-1 = leave auto dispatch).
  int simd = -1;
  std::function<void(Domain<Dim>&)> call;
};

/// Where a case runs: the mask, the domain's box in it, and the run's
/// parameters.  `side` is the edge of a square or cube grid, 0 otherwise.
template <int Dim>
struct Grid {
  typename GridTypes<Dim>::Mask mask;
  typename GridTypes<Dim>::Box box;
  FluidParams params;
  int ghost = 3;
  int side = 0;
};

struct Result {
  std::string kernel;
  int side = 0;
  std::string box;  // "nx x ny [x nz]", written as "96x96" / "32x48x48"
  int threads = 0;
  int reps = 0;
  double ms_per_call = 0;
  double mlups = 0;
  int bytes_per_update = 0;
  double gbps = 0;
  // Per-call latency percentiles over every call of every trial.
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// The 2D rows' grid: side x side, periodic, with a wall obstacle that
/// keeps the span tables non-trivial (several runs per row) without
/// dominating the site count.
Grid<2> square(int side, Method method) {
  Grid<2> g{Mask2D(Extents2{side, side}, 3), Box2{0, 0, side, side}, {}, 3,
            side};
  g.mask.fill_box({side / 4, side / 4, side / 4 + 8, side / 4 + 8},
                  NodeType::kWall);
  g.params.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  g.params.nu = 0.05;
  g.params.filter_eps = 0.1;
  g.params.periodic_x = g.params.periodic_y = true;
  return g;
}

/// The 3D parameters of the duct3d_lb workload, without the filter (and
/// the 2D rows' FD time step for FD).
FluidParams params3d(Method method) {
  FluidParams p;
  p.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  p.nu = 0.1;
  p.force_x = 1e-4;
  p.periodic_x = true;
  return p;
}

/// Rank 0's box of the duct3d_lb workload: the 96 x 48 x 48 channel
/// (walls on the y and z planes, periodic in x) cut 3 x 1 x 1.
Grid<3> duct_rank_box(Method method) {
  return Grid<3>{build_channel3d(Extents3{96, 48, 48}, 1),
                 Box3{0, 0, 0, 32, 48, 48}, params3d(method), 1, 0};
}

/// A side^3 cube, periodic on every axis, with the 2D rows' obstacle.
Grid<3> cube(int side, Method method) {
  Grid<3> g{Mask3D(Extents3{side, side, side}, 1),
            Box3{0, 0, 0, side, side, side}, params3d(method), 1, side};
  const int o = side / 4;
  g.mask.fill_box({o, o, o, o + 8, o + 8, o + 8}, NodeType::kWall);
  g.params.periodic_y = g.params.periodic_z = true;
  return g;
}

template <int Dim>
Result run_case(const KernelCase<Dim>& k, const Grid<Dim>& g, int threads) {
  Domain<Dim> d(g.mask, g.box, g.params, k.method, g.ghost, threads);

  const double updates_per_call =
      static_cast<double>(g.box.count()) * k.fields_per_call;
  const int reps =
      std::max(3, static_cast<int>(8e6 / updates_per_call));

  if (k.simd >= 0) set_simd(static_cast<SimdLevel>(k.simd));
  for (int i = 0; i < 2; ++i) k.call(d);  // warm-up: first-touch, pool wake
  double best = 0;
  telemetry::Histogram per_call;
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    auto prev = t0;
    for (int i = 0; i < reps; ++i) {
      k.call(d);
      const auto now = std::chrono::steady_clock::now();
      per_call.record(std::chrono::duration<double>(now - prev).count());
      prev = now;
    }
    const double secs = std::chrono::duration<double>(prev - t0).count();
    if (t == 0 || secs < best) best = secs;
  }
  if (k.simd >= 0) reset_simd();

  Result r;
  r.kernel = k.name;
  r.side = g.side;
  for (int n : extents_of(g.box).sizes())
    r.box += (r.box.empty() ? "" : "x") + std::to_string(n);
  r.threads = threads;
  r.reps = reps;
  r.ms_per_call = best * 1e3 / reps;
  r.mlups = updates_per_call * reps / best / 1e6;
  r.bytes_per_update = k.bytes_per_update;
  r.gbps = r.mlups * 1e6 * k.bytes_per_update / 1e9;
  const telemetry::Percentiles pct = telemetry::percentiles_of(per_call.data());
  r.p50_ms = pct.p50_s * 1e3;
  r.p95_ms = pct.p95_s * 1e3;
  r.p99_ms = pct.p99_s * 1e3;
  return r;
}

void print_row(const Result& r) {
  std::printf(
      "%-25s %-9s %-8d %-12.4f %-9.2f %-8d %-8.2f %-9.4f %-9.4f %.4f\n",
      r.kernel.c_str(), r.box.c_str(), r.threads, r.ms_per_call, r.mlups,
      r.bytes_per_update, r.gbps, r.p50_ms, r.p95_ms, r.p99_ms);
}

}  // namespace

int main(int argc, char** argv) {
  // FD velocity: reads rho, vx, vy; writes vx_next, vy_next (5 values).
  // FD density: reads rho, vx, vy; writes rho_next (4).  LB: reads the 9
  // populations and 3 moments, writes 9 populations (21).  LB moments:
  // reads the 9 populations, writes the 3 moments (12).  Filter, per
  // field: reads the field, writes the filtered buffer (2); filter_bc
  // counts one update per node, all three fields (6), the boundary pass
  // touching only the few non-fluid nodes.  3D LB: 15 populations and 4
  // moments read, 15 populations written (34); 3D moments: 15 read, 4
  // written (19).  3D FD velocity: rho and three velocities read, three
  // written (7); 3D FD density: the same four read, rho_next written (5).
  std::vector<KernelCase<2>> kernels;
  kernels.push_back({"fd_velocity", Method::kFiniteDifference, 1, 5 * 8, -1,
                     [](Domain2D& d) { fd::advance_velocity(d); }});
  kernels.push_back({"fd_density", Method::kFiniteDifference, 1, 4 * 8, -1,
                     [](Domain2D& d) { fd::advance_density(d); }});
  const auto lb = [](Domain2D& d) { lbm::collide_stream(d); };
  kernels.push_back(
      {"lb_collide_stream", Method::kLatticeBoltzmann, 1, 21 * 8, -1, lb});
  kernels.push_back({"lb_collide_stream_scalar", Method::kLatticeBoltzmann,
                     1, 21 * 8, static_cast<int>(SimdLevel::kScalar), lb});
  if (simd_avx2_built() && simd_avx2_supported())
    kernels.push_back({"lb_collide_stream_avx2", Method::kLatticeBoltzmann,
                       1, 21 * 8, static_cast<int>(SimdLevel::kAvx2), lb});
  kernels.push_back({"lb_moments", Method::kLatticeBoltzmann, 1, 12 * 8, -1,
                     [](Domain2D& d) { lbm::moments(d); }});
  const auto filter = [](Domain2D& d) { apply_filter(d); };
  kernels.push_back(
      {"filter", Method::kFiniteDifference, 3, 2 * 8, -1, filter});
  kernels.push_back({"filter_scalar", Method::kFiniteDifference, 3, 2 * 8,
                     static_cast<int>(SimdLevel::kScalar), filter});
  if (simd_avx2_built() && simd_avx2_supported())
    kernels.push_back({"filter_avx2", Method::kFiniteDifference, 3, 2 * 8,
                       static_cast<int>(SimdLevel::kAvx2), filter});
  kernels.push_back({"filter_bc", Method::kFiniteDifference, 1, 6 * 8, -1,
                     [](Domain2D& d) {
                       run_compute(d, ComputeKind::kFilterAndBc);
                     }});
  const std::vector<KernelCase<3>> kernels3d = {
      {"lb3d_collide_stream", Method::kLatticeBoltzmann, 1, 34 * 8, -1,
       [](Domain3D& d) { lbm::collide_stream(d); }},
      {"lb3d_moments", Method::kLatticeBoltzmann, 1, 19 * 8, -1,
       [](Domain3D& d) { lbm::moments(d); }},
      {"fd3d_velocity", Method::kFiniteDifference, 1, 7 * 8, -1,
       [](Domain3D& d) { fd::advance_velocity(d); }},
      {"fd3d_density", Method::kFiniteDifference, 1, 5 * 8, -1,
       [](Domain3D& d) { fd::advance_density(d); }},
  };

  std::vector<int> sides = {96, 192};
  const int thread_counts[] = {1, 2, 4};

  std::string path = "BENCH_kernels.json";
  std::string kernel_filter;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--kernel=", 9) == 0) {
      kernel_filter = a + 9;
    } else if (std::strncmp(a, "--side=", 7) == 0) {
      sides = {std::max(16, std::atoi(a + 7))};
    } else {
      path = a;
    }
  }
  const auto selected = [&](const char* name) {
    return kernel_filter.empty() ||
           std::string(name).find(kernel_filter) != std::string::npos;
  };

  const Provenance prov = collect_provenance();
  std::printf("Kernel throughput (MLUPS = 1e6 interior site updates/s)\n");
  std::printf("host: %s, %d hardware threads\n", prov.cpu_model.c_str(),
              prov.hardware_threads);
  std::printf("timing: best of %d trials per case\n\n", kTrials);
  std::printf("%-25s %-9s %-8s %-12s %-9s %-8s %-8s %-9s %-9s %s\n",
              "kernel", "box", "threads", "ms/call", "MLUPS", "B/upd",
              "GB/s", "p50_ms", "p95_ms", "p99_ms");

  std::vector<Result> results;
  const auto record = [&results](const Result& r) {
    print_row(r);
    results.push_back(r);
  };
  for (const KernelCase<2>& k : kernels) {
    if (!selected(k.name)) continue;
    for (int side : sides)
      for (int threads : thread_counts)
        record(run_case(k, square(side, k.method), threads));
  }
  for (const KernelCase<3>& k : kernels3d) {
    if (!selected(k.name)) continue;
    for (const Grid<3>& g : {duct_rank_box(k.method), cube(48, k.method)})
      record(run_case(k, g, 1));
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"provenance\": %s,\n",
               provenance_json(prov).c_str());
  std::fprintf(f,
               "  \"timing\": \"per case: 2 warm-up calls, then best of "
               "%d trials of reps calls; bytes_per_update is the no-RFO "
               "streaming-traffic model, gbps = mlups * bytes; p50/p95/p99 "
               "are per-call latency over all trials from a 40-bucket log "
               "histogram; side is the edge of a square or cube box and is "
               "absent for other boxes\",\n",
               kTrials);
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const std::string side =
        r.side > 0 ? "\"side\": " + std::to_string(r.side) + ", " : "";
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", %s\"box\": \"%s\", "
                 "\"threads\": %d, \"reps\": %d, \"ms_per_call\": %.4f, "
                 "\"mlups\": %.2f,\n"
                 "     \"bytes_per_update\": %d, \"gbps\": %.2f, "
                 "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                 r.kernel.c_str(), side.c_str(), r.box.c_str(), r.threads,
                 r.reps, r.ms_per_call, r.mlups, r.bytes_per_update, r.gbps,
                 r.p50_ms, r.p95_ms, r.p99_ms,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
