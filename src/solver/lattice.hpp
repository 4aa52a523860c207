// The LB lattice of each dimension (D2Q9, D3Q15), for code written once
// over both: the domain's population slab, the boundary pass, the
// schedule and DomainTraits reach lbm2d:: or lbm3d:: through these.
#pragma once

#include <array>

#include "src/solver/lbm2d.hpp"
#include "src/solver/lbm3d.hpp"

namespace subsonic {

/// Populations of the Dim-dimensional lattice.
template <int Dim>
inline constexpr int kLatticeQ = Dim == 2 ? lbm2d::kQ : lbm3d::kQ;

/// Equilibrium population i at density rho and velocity u (one component
/// per axis); the same arithmetic as lbm2d:: or lbm3d::equilibrium.
inline double lattice_equilibrium(int i, double rho,
                                  const std::array<double, 2>& u) {
  return lbm2d::equilibrium(i, rho, u[0], u[1]);
}
inline double lattice_equilibrium(int i, double rho,
                                  const std::array<double, 3>& u) {
  return lbm3d::equilibrium(i, rho, u[0], u[1], u[2]);
}

}  // namespace subsonic
