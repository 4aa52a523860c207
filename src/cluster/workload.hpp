// Describes what the cluster must execute, independent of the fluid code
// itself: for every parallel process, how many fluid nodes it integrates
// per step and how many boundary nodes it ships to each neighbour.  Built
// from the same Decomposition classes the real runtime uses, with the
// paper's communication accounting (section 6: one surface layer; 3
// doubles per boundary node in 2D, 4 for FD / 5 for LB in 3D; FD splits
// them over two messages, LB sends one).
#pragma once

#include <cstdint>
#include <vector>

#include "src/decomp/decomposition.hpp"
#include "src/geometry/mask.hpp"
#include "src/solver/params.hpp"

namespace subsonic {

struct ProcMessage {
  int peer = -1;            ///< receiving process index within the workload
  std::int64_t nodes = 0;   ///< boundary fluid nodes carried
};

struct ProcSpec {
  std::int64_t compute_nodes = 0;     ///< nodes integrated per step
  std::vector<ProcMessage> messages;  ///< one entry per neighbour
};

struct WorkloadSpec {
  Method method = Method::kLatticeBoltzmann;
  int dims = 2;
  std::vector<ProcSpec> procs;
  /// Doubles per boundary node carried by each exchange of one step:
  /// {2, 1} for FD 2D (velocities then density), {3} for LB 2D, etc.
  std::vector<int> doubles_per_exchange;

  int process_count() const { return static_cast<int>(procs.size()); }
  std::int64_t total_compute_nodes() const {
    std::int64_t n = 0;
    for (const ProcSpec& p : procs) n += p.compute_nodes;
    return n;
  }
  int total_doubles_per_node() const {
    int n = 0;
    for (int d : doubles_per_exchange) n += d;
    return n;
  }
};

/// Uniform 2D decomposition, every subregion active.
WorkloadSpec make_workload2d(const Decomposition2D& d, Method method);

/// Uniform 3D decomposition, every subregion active.
WorkloadSpec make_workload3d(const Decomposition3D& d, Method method);

/// 2D decomposition of a masked geometry: subregions active_ranks drops
/// (all solid, bordering no fluid) get no process, and compute counts
/// include only non-wall nodes (the paper's Figure 2: 15 of 24
/// subregions, 0.48 of 0.7 Mnodes).
WorkloadSpec make_workload2d(const Decomposition2D& d, const Mask2D& mask,
                             Method method);

}  // namespace subsonic
