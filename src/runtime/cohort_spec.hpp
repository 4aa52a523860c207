// The serialized problem description an exec-launched child rebuilds its
// world from.  A forked child inherits the mask, params and decomposition
// by address; an ExecLauncher child (and eventually an SSH-launched one)
// inherits *nothing*, so the supervisor writes one cohort.spec file per
// run and every child derives the identical Mask / FluidParams /
// decomposition from it — the decomposition factories are deterministic
// functions of (mask, grid), so rebuilding them per child is bitwise
// equivalent to inheriting them.  This is supervisor -> child
// configuration, not rank-to-rank coordination, so a workdir file is the
// right vehicle (like the checkpoint dumps, unlike the retired port
// registry).
#pragma once

#include <string>
#include <vector>

#include "src/geometry/mask.hpp"
#include "src/runtime/domain_traits.hpp"
#include "src/solver/params.hpp"

namespace subsonic::cohort {

struct CohortSpec {
  int dim = 2;
  Method method = Method::kLatticeBoltzmann;
  int block_side = 0;  ///< resolved block side (0: one block per rank)
  GridShape grid;
  FluidParams params;
  Mask2D mask2;  ///< the geometry when dim == 2
  Mask3D mask3;  ///< the geometry when dim == 3
  /// Block -> rank owner map of the current segment; empty means the
  /// decomposition's default map.
  std::vector<int> owner;

  void set_mask(const Mask2D& m) {
    dim = 2;
    mask2 = m;
  }
  void set_mask(const Mask3D& m) {
    dim = 3;
    mask3 = m;
  }
};

std::vector<char> serialize_cohort_spec(const CohortSpec& spec);

/// Throws std::runtime_error on a truncated or corrupt buffer.
CohortSpec deserialize_cohort_spec(const char* data, std::size_t len);

/// Atomic write (tmp + rename), so a child can never observe a torn spec.
void write_cohort_spec(const std::string& path, const CohortSpec& spec);

/// Throws std::runtime_error when the file is missing or corrupt.
CohortSpec read_cohort_spec(const std::string& path);

}  // namespace subsonic::cohort
