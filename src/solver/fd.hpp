// Explicit finite differences for the compressible isothermal Navier-Stokes
// equations (paper eqs. 1-3, section 6, and in 3D the V_z extension the
// paper mentions under them): centered differences in space, forward
// Euler in time.  For stability the density equation is updated with the
// *new* velocities (velocities first, then density as a separate step),
// exactly as in the paper:
//   calculate V (inner) -> communicate V -> calculate rho (inner)
//   -> communicate rho -> filter rho, V (inner)
//
// Both kernels are written once over Dim, double buffered (read current,
// write _next, swap) and splittable into a boundary-band pass and an
// interior pass (see pass.hpp) so the drivers can post sends while the
// interior is still computing.
#pragma once

#include "src/solver/domain.hpp"
#include "src/solver/pass.hpp"

namespace subsonic::fd {

/// Forward-Euler update of the velocities on the interior from the
/// momentum equations (advection + pressure gradient + viscous term +
/// body force).
template <int Dim>
void advance_velocity(Domain<Dim>& d, ComputePass pass = ComputePass::kFull);

/// Forward-Euler update of rho on the interior from the continuity
/// equation, using the just-computed velocities.
template <int Dim>
void advance_density(Domain<Dim>& d, ComputePass pass = ComputePass::kFull);

}  // namespace subsonic::fd
