// Fourth-order numerical-viscosity filter (paper section 6, after
// Peyret & Taylor).  Dissipates spatial frequencies whose wavelength is
// comparable to the mesh size; without it, fast subsonic flow develops
// slow-growing grid-scale instabilities.  Shared by both FD and LB.
//
// Applied dimension-by-dimension:
//   u <- u - (eps/16) (u[-2] - 4 u[-1] + 6 u[0] - 4 u[+1] + u[+2])
// at fluid nodes whose whole 5-point stencil carries meaningful values
// (i.e. contains no wall node); near walls the direction is skipped, which
// keeps the operation purely local.
#pragma once

#include "src/solver/domain.hpp"

namespace subsonic {

/// Filters rho and the velocity components, dimension-split over the
/// axes, on the interior plus a one-node ghost ring (the ring keeps the
/// first ghost layer bit-identical with the neighbour's filtered
/// interior, so no extra message is needed).  No-op when
/// params().filter_eps == 0.
template <int Dim>
void apply_filter(Domain<Dim>& d);

}  // namespace subsonic
