// Explicit finite differences in 3D — the V_z extension the paper mentions
// under equations 1-3.  Same schedule shape as 2D: velocities first,
// density second with the new velocities, two messages per step.  Double
// buffered and band/interior splittable exactly like fd2d (see pass.hpp).
#pragma once

#include "src/solver/domain.hpp"
#include "src/solver/pass.hpp"

namespace subsonic::fd3d {

void advance_velocity(Domain3D& d, ComputePass pass = ComputePass::kFull);
void advance_density(Domain3D& d, ComputePass pass = ComputePass::kFull);

}  // namespace subsonic::fd3d
