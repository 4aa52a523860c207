// Measured per-kernel update rates for the cluster model's U_calc.  The
// paper calibrates its efficiency model with one scalar (39132 fluid-node
// updates per second, the 715/50 running 2D LB); the kernel bench suite
// (bench/bench_kernels.cpp, written to BENCH_kernels.json) measures each
// kernel pass separately on the actual build.  A loaded table replaces the
// scalar with the composed per-step rate of the method's kernel passes,
// while the paper's relative host-speed factors still apply on top — so
// "what if the nodes were this fast" studies keep the cluster's shape.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "src/solver/params.hpp"

namespace subsonic {

/// Single-thread MLUPS (million lattice-node updates per second) per
/// kernel, taken from the largest benched grid side — the least
/// cache-flattered, most production-like figure in the bench file.
class KernelSpeedTable {
 public:
  KernelSpeedTable() = default;

  /// Parses a BENCH_kernels.json produced by bench_kernels: for every
  /// kernel keeps the threads == 1 case at the largest side.  Throws
  /// contract_error when the file is unreadable or contains no usable
  /// case.  The parser is a purpose-built scanner for the bench schema
  /// (flat case objects with numeric/string scalar values), not a general
  /// JSON reader.
  static KernelSpeedTable from_bench_json(const std::string& path);

  bool empty() const { return mlups_.empty(); }

  /// MLUPS of one kernel, if benched.  Dispatch-variant names resolve
  /// through a fallback chain: `lb_collide_stream_avx2` tries the exact
  /// entry, then the unsuffixed base (`lb_collide_stream`, the
  /// auto-dispatched production row), then the base's `_scalar` row —
  /// so a bench file from before the SIMD split, or from a machine that
  /// couldn't run a variant, still prices the kernel.
  std::optional<double> mlups(const std::string& kernel) const;

  /// Composed fluid-node updates per second for one step of `method`:
  /// 1e6 / sum over the compute phases of make_schedule<2> of 1 / MLUPS,
  /// each phase priced by the bench row of its timer name without the
  /// "compute." prefix.  FD composes fd_velocity + fd_density +
  /// filter_bc, LB lb_collide_stream + lb_moments + filter_bc.  A
  /// non-empty `variant` (e.g. "avx2", "scalar") asks for that dispatch
  /// variant of each pass, resolved through the mlups() fallback chain.
  /// Returns nullopt when any phase's row is missing, so callers can fall
  /// back to the scalar rate.
  std::optional<double> node_rate(Method method,
                                  const std::string& variant = "") const;

  /// Directly sets a kernel's MLUPS (tests, hand calibration).
  void set(const std::string& kernel, double mlups);

 private:
  std::map<std::string, double> mlups_;
};

}  // namespace subsonic
