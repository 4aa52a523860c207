// The ExecLauncher child binary.  Where a forked child inherits its world
// by address, this program receives a ChildConfig as "key=value" argv
// tokens and rebuilds the mask / params / block decomposition from the
// cohort spec file — proving the child body depends on no inherited
// supervisor state, which is the precondition for launching it on another
// host.  The decomposition factories are deterministic, so the rebuilt
// world — and therefore every dump and every exchanged byte — is bitwise
// identical to the forked child's.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "src/runtime/cohort.hpp"
#include "src/runtime/cohort_spec.hpp"
#include "src/runtime/domain_traits.hpp"
#include "src/util/fault_plan.hpp"

namespace {

using subsonic::cohort::ChildConfig;

class ArgMap {
 public:
  ArgMap(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto eq = arg.find('=');
      if (eq == std::string::npos)
        throw std::invalid_argument("expected key=value, got \"" + arg +
                                    "\"");
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }

  std::string str(const char* key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end())
      throw std::invalid_argument(std::string("missing argument ") + key);
    return it->second;
  }
  long long num(const char* key) const { return std::stoll(str(key)); }

 private:
  std::map<std::string, std::string> kv_;
};

template <int Dim>
[[noreturn]] void run(const subsonic::cohort::CohortSpec& spec,
                      const ChildConfig& cfg, const std::string& workdir,
                      const std::string& registry,
                      const subsonic::FaultPlan& faults) {
  using Traits = subsonic::DomainTraits<Dim>;
  const auto& mask = [&spec]() -> const typename Traits::Mask& {
    if constexpr (Dim == 2)
      return spec.mask2;
    else
      return spec.mask3;
  }();
  spec.params.validate();
  const int ghost =
      subsonic::required_ghost(spec.method, spec.params.filter_eps > 0.0);
  auto bd = Traits::make_block_decomposition(mask, spec.grid, spec.block_side,
                                             ghost, spec.params);
  if (!spec.owner.empty()) bd.set_owner_map(spec.owner);
  subsonic::cohort::child_main<Dim>(mask, spec.params, spec.method, bd, cfg,
                                    workdir, registry, faults);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgMap args(argc, argv);
    ChildConfig cfg;
    cfg.rank = static_cast<int>(args.num("rank"));
    cfg.generation = static_cast<int>(args.num("generation"));
    cfg.target_step = args.num("target_step");
    cfg.start_step = args.num("start_step");
    cfg.restore_epoch = args.num("restore_epoch");
    cfg.checkpoint_interval = static_cast<int>(args.num("checkpoint_interval"));
    cfg.stagger_index = static_cast<int>(args.num("stagger_index"));
    cfg.recv_deadline_ms = static_cast<int>(args.num("recv_deadline_ms"));
    cfg.sched = static_cast<subsonic::Scheduling>(args.num("sched"));
    cfg.threads = static_cast<int>(args.num("threads"));
    cfg.trace = args.num("trace") != 0;
    cfg.origin_ns = args.num("origin_ns");
    cfg.heartbeat_fd = static_cast<int>(args.num("heartbeat_fd"));
    cfg.control_fd = static_cast<int>(args.num("control_fd"));
    cfg.beacon_interval_ms = static_cast<int>(args.num("beacon_interval_ms"));
    cfg.metrics_flush_interval =
        static_cast<int>(args.num("metrics_flush_interval"));
    const int dim = static_cast<int>(args.num("dim"));
    const std::string workdir = args.str("workdir");
    const std::string registry = args.str("registry");
    const std::string faults_spec = args.str("faults");

    const subsonic::FaultPlan faults = faults_spec.empty()
                                           ? subsonic::FaultPlan::from_env()
                                           : subsonic::FaultPlan::parse(
                                                 faults_spec);
    const subsonic::cohort::CohortSpec spec =
        subsonic::cohort::read_cohort_spec(args.str("spec"));
    if (dim != spec.dim)
      throw std::runtime_error("cohort spec dimension mismatch");

    if (dim == 2)
      run<2>(spec, cfg, workdir, registry, faults);
    else if (dim == 3)
      run<3>(spec, cfg, workdir, registry, faults);
    std::fprintf(stderr, "subsonic_child: unsupported dimension %d\n", dim);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "subsonic_child: %s\n", e.what());
  }
  return 1;  // child_main never returns; reaching here is a setup failure
}
