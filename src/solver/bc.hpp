// Boundary-value pass, run at the end of every step on every non-fluid
// padded node (the domain's nonfluid_spans, so the fluid majority costs
// nothing).  Keeps prescribed nodes at their prescribed values so that
// neighbouring stencils can read them uniformly (no special cases inside
// hot loops):
//   walls  : rho = rho0, V = 0 (LB walls are handled by bounce-back)
//   inlets : rho = rho0, V = jet velocity; LB also pins the equilibrium
//   outlets: rho pinned to rho0 (pressure-release opening), V evolves
#pragma once

#include "src/solver/domain.hpp"

namespace subsonic {

template <int Dim>
void apply_bc(Domain<Dim>& d);

}  // namespace subsonic
