// The three benchmark workloads and the calls every measurement goes
// through: the serial baseline, and one supervised run in a fresh workdir
// whose gathered fields are compared bit for bit with the baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "src/runtime/domain_traits.hpp"
#include "src/runtime/supervisor.hpp"
#include "src/solver/params.hpp"

namespace e2e {

using subsonic::FluidParams;
using subsonic::GridShape;
using subsonic::Method;
using subsonic::ProcessRunOptions;
using subsonic::ProcessRunResult;

/// What the seed decides.  Only inputs: the flow's driving strength and
/// the kill's rank and step.
struct SeededInputs {
  double drive = 0;     ///< inlet speed (flue pipe) or body force (duct)
  int kill_rank = -1;   ///< -1: no fault
  long kill_step = -1;
};

template <int Dim>
struct World {
  using Traits = subsonic::DomainTraits<Dim>;
  std::string name;
  typename Traits::Mask mask;
  FluidParams params;
  Method method = Method::kLatticeBoltzmann;
  GridShape grid;
  int steps = 0;              ///< steps of one timed call
  ProcessRunOptions options;  ///< every field set; no fault
  SeededInputs seeded;
  long long fluid_cells = 0;

  int expected_restarts() const { return seeded.kill_rank >= 0 ? 1 : 0; }
  /// The timed call's options: the seeded fault added.
  ProcessRunOptions faulted_options() const;
};

/// Dimension of a workload (2 or 3); 0 for an unknown name.
int workload_dim(const std::string& name);

/// Builds the workload from its name and seed.  `short_mode` shrinks the
/// step count for the self-check.
World<2> make_world2(const std::string& name, std::uint64_t seed,
                     bool short_mode);
World<3> make_world3(const std::string& name, std::uint64_t seed,
                     bool short_mode);

/// Global macro fields flattened field-major, then z, y, x — kept in an
/// anonymous mapping that forked ranks do not inherit, so the reference
/// never inflates a rank's resident set.
class Reference {
 public:
  Reference() = default;
  explicit Reference(const std::vector<double>& values);
  ~Reference();
  Reference(Reference&& o) noexcept;
  Reference& operator=(Reference&& o) noexcept;
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  bool equals(const std::vector<double>& values) const;

 private:
  double* data_ = nullptr;
  std::size_t n_ = 0;
};

/// Serial baseline fields, kept for the bit-for-bit checks.
struct Baseline {
  Reference at_one;    ///< fields after 1 step (set-up calls)
  Reference at_steps;  ///< fields after world.steps
};

/// Steps in one timed segment of a serial run.
constexpr int kSerialSegmentSteps = 10;

/// The paper's one-workstation run: a fresh SerialDriver<Dim> with 1
/// thread, in this process, on the workload's mask, params, method and
/// step count.  Returns the wall seconds of each kSerialSegmentSteps-step
/// segment in step order (the last may be shorter); `capture` (optional)
/// receives the fields after step 1 and after the last step, outside the
/// timed part.  The SerialDriver is gone when this returns, so its memory is
/// returned before the next rank is forked.
template <int Dim>
std::vector<double> serial_run(const World<Dim>& w, Tracer* tracer,
                               Baseline* capture);

struct CallOutcome {
  bool ok = false;
  std::string why;  ///< first failed check
  double wall_s = 0;
  double cpu_s = 0;  ///< supervisor + every reaped rank, user + sys
  std::int64_t start_ns = 0;
  ProcessRunResult result;
  std::string trace_json;    ///< trace.json when keep_artifacts
  std::string summary_json;  ///< run_summary.json when keep_artifacts
};

/// One run_supervised call in a fresh workdir under `workroot`, checked
/// against `ref` (final step, restart and fork counts, gathered fields).
/// The workdir is removed afterwards.
template <int Dim>
CallOutcome call_supervised(const World<Dim>& w, int steps,
                            const ProcessRunOptions& options,
                            int expected_restarts, const Reference& ref,
                            const std::string& workroot, Tracer* tracer,
                            bool keep_artifacts);

/// A fresh directory under `root` (created if missing).
std::string make_workdir(const std::string& root, const std::string& tag);

}  // namespace e2e
