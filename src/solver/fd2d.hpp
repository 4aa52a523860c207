// Explicit finite differences for the compressible isothermal Navier-Stokes
// equations (paper eqs. 1-3, section 6): centered differences in space,
// forward Euler in time.  For stability the density equation is updated
// with the *new* velocities (velocities first, then density as a separate
// step), exactly as in the paper:
//   calculate Vx, Vy (inner) -> communicate V -> calculate rho (inner)
//   -> communicate rho -> filter rho, Vx, Vy (inner)
//
// Both kernels are double buffered (read current, write _next, swap) and
// splittable into a boundary-band pass and an interior pass (see pass.hpp)
// so the drivers can post sends while the interior is still computing.
#pragma once

#include "src/solver/domain.hpp"
#include "src/solver/pass.hpp"

namespace subsonic::fd2d {

/// Forward-Euler update of vx, vy on the interior from the momentum
/// equations (advection + pressure gradient + viscous term + body force).
void advance_velocity(Domain2D& d, ComputePass pass = ComputePass::kFull);

/// Forward-Euler update of rho on the interior from the continuity
/// equation, using the just-computed velocities.
void advance_density(Domain2D& d, ComputePass pass = ComputePass::kFull);

}  // namespace subsonic::fd2d
