#include "workloads.hpp"

#include <stdlib.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/geometry/flue_pipe.hpp"
#include "src/runtime/gather.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/util/rng.hpp"

namespace e2e {

using subsonic::NodeType;

namespace {

// Step counts.  One round of the measurement window (a set-up call, a
// timed call and a serial run) takes a few seconds on a 4-core host, so
// a window holds several rounds and reports their medians.
constexpr int kFlueLbSteps = 100;
constexpr int kDuctSteps = 100;
constexpr int kFdSteps = 200;
constexpr int kFdCheckpointInterval = 50;
// Twice the default block side: every block dump is its own fsynced file,
// and at the default 32^2 (~100 blocks) the ~400 fsyncs of a call made its
// wall time follow the disk's fsync latency rather than the program.
constexpr int kFdBlockSide = 2 * subsonic::kDefaultBlockSide;
constexpr int kShortSteps = 12;
constexpr int kShortFdSteps = 60;
constexpr int kShortFdCheckpointInterval = 10;

ProcessRunOptions base_options() {
  ProcessRunOptions o;
  o.sched = subsonic::Scheduling::kOverlap;
  o.threads = 1;
  o.checkpoint_interval = 0;
  o.max_restarts = 1;
  o.recv_deadline_ms = 10000;
  o.faults = "";  // no fault: the ambient SUBSONIC_FAULTS was unset at start
  o.trace = 0;
  o.block_side = 0;
  o.rebalance_interval = 0;
  o.rebalance_threshold = 1.15;
  o.metrics_flush_interval = 16;
  o.status_port = -1;
  o.liveness.watchdog = true;
  o.liveness.heartbeat_floor_ms = 5000;
  o.liveness.deadline_multiplier = 8.0;
  o.liveness.beacon_interval_ms = 50;
  o.liveness.grace_ms = 2000;
  o.liveness.socket_channels = -1;
  o.launcher = "fork";
  return o;
}

double in_band(subsonic::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.uniform();
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

template <typename Field>
void append_interior(std::vector<double>& out, const Field& f,
                     const subsonic::Extents2& e) {
  for (int y = 0; y < e.ny; ++y)
    for (int x = 0; x < e.nx; ++x) out.push_back(f(x, y));
}

template <typename Field>
void append_interior(std::vector<double>& out, const Field& f,
                     const subsonic::Extents3& e) {
  for (int z = 0; z < e.nz; ++z)
    for (int y = 0; y < e.ny; ++y)
      for (int x = 0; x < e.nx; ++x) out.push_back(f(x, y, z));
}

template <int Dim>
std::vector<double> flatten_domain(
    const typename subsonic::DomainTraits<Dim>::Domain& d,
    const typename subsonic::DomainTraits<Dim>::Mask& mask) {
  std::vector<double> out;
  for (subsonic::FieldId id : subsonic::DomainTraits<Dim>::macro_fields())
    append_interior(out, d.field(id), mask.extents());
  return out;
}

std::vector<double> flatten_gathered(const subsonic::GatheredFields2D& g,
                                     const subsonic::Extents2& e) {
  std::vector<double> out;
  append_interior(out, g.rho, e);
  append_interior(out, g.vx, e);
  append_interior(out, g.vy, e);
  return out;
}

std::vector<double> flatten_gathered(const subsonic::GatheredFields3D& g,
                                     const subsonic::Extents3& e) {
  std::vector<double> out;
  append_interior(out, g.rho, e);
  append_interior(out, g.vx, e);
  append_interior(out, g.vy, e);
  append_interior(out, g.vz, e);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

template <int Dim>
std::vector<double> gather(const World<Dim>& w, int block_side,
                           const std::string& dir) {
  const GridShape& g = w.grid;
  if constexpr (Dim == 2) {
    const auto fields =
        block_side != 0
            ? subsonic::gather_fields2d_blocked(w.mask, w.params, w.method,
                                                g.jx, g.jy, block_side, dir)
            : subsonic::gather_fields2d(w.mask, w.params, w.method, g.jx,
                                        g.jy, dir);
    return flatten_gathered(fields, w.mask.extents());
  } else {
    const auto fields =
        block_side != 0
            ? subsonic::gather_fields3d_blocked(w.mask, w.params, w.method,
                                                g.jx, g.jy, g.jz, block_side,
                                                dir)
            : subsonic::gather_fields3d(w.mask, w.params, w.method, g.jx,
                                        g.jy, g.jz, dir);
    return flatten_gathered(fields, w.mask.extents());
  }
}

}  // namespace

template <int Dim>
ProcessRunOptions World<Dim>::faulted_options() const {
  ProcessRunOptions o = options;
  if (seeded.kill_rank >= 0)
    o.faults = "kill:rank=" + std::to_string(seeded.kill_rank) +
               ",step=" + std::to_string(seeded.kill_step);
  return o;
}

int workload_dim(const std::string& name) {
  if (name == "flue2d_lb" || name == "flue2d_fd_recovery") return 2;
  if (name == "duct3d_lb") return 3;
  return 0;
}

World<2> make_world2(const std::string& name, std::uint64_t seed,
                     bool short_mode) {
  subsonic::Rng rng(seed);
  World<2> w;
  w.name = name;
  w.options = base_options();
  w.params.dt = 1.0;
  w.params.nu = 0.01;
  w.params.filter_eps = 0.1;
  if (name == "flue2d_lb") {
    // Paper Figure 1 at the paper's size; LB with the 4th-order filter.
    w.seeded.drive = in_band(rng, 0.076, 0.084);
    w.mask = subsonic::build_flue_pipe(subsonic::Extents2{800, 500},
                                       subsonic::FluePipeVariant::kBasic, 3,
                                       w.seeded.drive)
                 .mask;
    w.method = Method::kLatticeBoltzmann;
    w.grid = GridShape{2, 1, 1};
    w.steps = short_mode ? kShortSteps : kFlueLbSteps;
  } else if (name == "flue2d_fd_recovery") {
    // FD (two exchanges a step) on the blocked runtime, exec-launched
    // ranks on socket channels, epoch checkpoints, and one seeded kill
    // after the first committed epoch and before the last.
    w.seeded.drive = in_band(rng, 0.076, 0.084);
    w.mask = subsonic::build_flue_pipe(subsonic::Extents2{400, 250},
                                       subsonic::FluePipeVariant::kBasic, 3,
                                       w.seeded.drive)
                 .mask;
    w.method = Method::kFiniteDifference;
    w.params.dt = 0.3;
    w.params.nu = 0.02;
    w.grid = GridShape{2, 1, 1};
    w.steps = short_mode ? kShortFdSteps : kFdSteps;
    const int interval =
        short_mode ? kShortFdCheckpointInterval : kFdCheckpointInterval;
    w.options.checkpoint_interval = interval;
    w.options.block_side = kFdBlockSide;
    w.options.launcher = "exec";
    w.options.liveness.socket_channels = 1;
    // The kill lands half an interval past epoch k (1 <= k < last), after
    // every rank has flushed that epoch, so each seed replays the same
    // number of steps.
    const int last_epoch = (w.steps - 1) / interval;
    w.seeded.kill_rank = static_cast<int>(rng() % 2);
    const long k = 1 + static_cast<long>(rng() % (last_epoch - 1));
    w.seeded.kill_step = k * interval + interval / 2;
  } else {
    throw std::invalid_argument("unknown 2D workload " + name);
  }
  w.params.inlet_vx = w.seeded.drive;
  w.fluid_cells =
      w.mask.count_box(subsonic::full_box(w.mask.extents()), NodeType::kFluid);
  return w;
}

World<3> make_world3(const std::string& name, std::uint64_t seed,
                     bool short_mode) {
  if (name != "duct3d_lb")
    throw std::invalid_argument("unknown 3D workload " + name);
  subsonic::Rng rng(seed);
  World<3> w;
  w.name = name;
  w.options = base_options();
  // The paper's 3D test problem: a body-forced duct, periodic along the
  // stream, in the (3 x 1 x 1) pipeline of Figure 9.
  w.seeded.drive = in_band(rng, 0.9e-4, 1.1e-4);
  w.mask = subsonic::build_channel3d(subsonic::Extents3{96, 48, 48}, 1);
  w.method = Method::kLatticeBoltzmann;
  w.params.dt = 1.0;
  w.params.nu = 0.1;
  w.params.periodic_x = true;
  w.params.force_x = w.seeded.drive;
  w.grid = GridShape{3, 1, 1};
  w.steps = short_mode ? kShortSteps : kDuctSteps;
  w.fluid_cells =
      w.mask.count_box(subsonic::full_box(w.mask.extents()), NodeType::kFluid);
  return w;
}

Reference::Reference(const std::vector<double>& values) : n_(values.size()) {
  const std::size_t bytes = n_ * sizeof(double);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("mmap of the reference failed");
  ::madvise(p, bytes, MADV_DONTFORK);
  data_ = static_cast<double*>(p);
  std::memcpy(data_, values.data(), bytes);
}

Reference::~Reference() {
  if (data_) ::munmap(data_, n_ * sizeof(double));
}

Reference::Reference(Reference&& o) noexcept
    : data_(std::exchange(o.data_, nullptr)), n_(std::exchange(o.n_, 0)) {}

Reference& Reference::operator=(Reference&& o) noexcept {
  if (this != &o) {
    if (data_) ::munmap(data_, n_ * sizeof(double));
    data_ = std::exchange(o.data_, nullptr);
    n_ = std::exchange(o.n_, 0);
  }
  return *this;
}

bool Reference::equals(const std::vector<double>& values) const {
  return data_ && values.size() == n_ &&
         std::memcmp(data_, values.data(), n_ * sizeof(double)) == 0;
}

template <int Dim>
std::vector<double> serial_run(const World<Dim>& w, Tracer* tracer,
                               Baseline* capture) {
  Span span(tracer, "runtime", "runtime.serial_driver");
  subsonic::SerialDriver<Dim> serial(w.mask, w.params, w.method, 1);
  std::vector<double> segments;
  std::int64_t elapsed = 0;
  for (int step = 1; step <= w.steps; ++step) {
    const std::int64_t t0 = mono_ns();
    serial.run(1);
    elapsed += mono_ns() - t0;
    if (step == 1 && capture)
      capture->at_one = Reference(flatten_domain<Dim>(serial.domain(), w.mask));
    if (step % kSerialSegmentSteps == 0 || step == w.steps) {
      segments.push_back(static_cast<double>(elapsed) / 1e9);
      elapsed = 0;
    }
  }
  if (capture)
    capture->at_steps =
        Reference(flatten_domain<Dim>(serial.domain(), w.mask));
  return segments;
}

template <int Dim>
CallOutcome call_supervised(const World<Dim>& w, int steps,
                            const ProcessRunOptions& options,
                            int expected_restarts, const Reference& ref,
                            const std::string& workroot, Tracer* tracer,
                            bool keep_artifacts) {
  CallOutcome out;
  const std::string dir = make_workdir(workroot, w.name);
  {
    Span span(tracer, "runtime", "runtime.run_supervised");
    const double cpu0 =
        cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN);
    out.start_ns = mono_ns();
    try {
      out.result = subsonic::run_supervised<Dim>(w.mask, w.params, w.method,
                                                 w.grid, steps, dir, options);
    } catch (const std::exception& e) {
      out.why = std::string("run_supervised threw: ") + e.what();
    }
    out.wall_s = static_cast<double>(mono_ns() - out.start_ns) / 1e9;
    out.cpu_s = cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN) - cpu0;
  }
  const ProcessRunResult& r = out.result;
  if (out.why.empty() && r.final_step != steps)
    out.why = "final_step " + std::to_string(r.final_step) + " != " +
              std::to_string(steps);
  if (out.why.empty() && r.restarts != expected_restarts)
    out.why = "restarts " + std::to_string(r.restarts) + " != " +
              std::to_string(expected_restarts);
  if (out.why.empty() && r.forks != r.processes + expected_restarts)
    out.why = "forks " + std::to_string(r.forks) + " != " +
              std::to_string(r.processes + expected_restarts);
  if (out.why.empty()) {
    Span span(tracer, "runtime", "runtime.gather");
    try {
      if (!ref.equals(gather(w, options.block_side, dir)))
        out.why = "gathered fields differ from the serial baseline";
    } catch (const std::exception& e) {
      out.why = std::string("gather threw: ") + e.what();
    }
  }
  if (out.why.empty() && keep_artifacts) {
    out.trace_json = read_file(dir + "/trace.json");
    out.summary_json = read_file(r.summary_path);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  out.ok = out.why.empty();
  return out;
}

std::string make_workdir(const std::string& root, const std::string& tag) {
  std::filesystem::create_directories(root);
  std::string templ =
      std::filesystem::absolute(root).string() + "/" + tag + "-XXXXXX";
  if (!::mkdtemp(templ.data()))
    throw std::runtime_error("cannot create a workdir under " + root);
  return templ;
}

template struct World<2>;
template struct World<3>;
template std::vector<double> serial_run<2>(const World<2>&, Tracer*,
                                           Baseline*);
template std::vector<double> serial_run<3>(const World<3>&, Tracer*,
                                           Baseline*);
template CallOutcome call_supervised<2>(const World<2>&, int,
                                        const ProcessRunOptions&, int,
                                        const Reference&, const std::string&,
                                        Tracer*, bool);
template CallOutcome call_supervised<3>(const World<3>&, int,
                                        const ProcessRunOptions&, int,
                                        const Reference&, const std::string&,
                                        Tracer*, bool);

}  // namespace e2e
