// Lattice Boltzmann on the D3Q15 lattice: rest population, six axis
// neighbours, eight cube corners (c_s^2 = 1/3).  Five populations cross
// any axis-aligned subregion face — the "5 variables per fluid node"
// communication count the paper quotes for 3D LB (section 6).
#pragma once

#include "src/solver/domain.hpp"
#include "src/solver/pass.hpp"

namespace subsonic::lbm3d {

inline constexpr int kQ = 15;

inline constexpr int kCx[kQ] = {0, 1, -1, 0, 0,  0, 0,
                                1, -1, 1, -1, 1, -1, -1, 1};
inline constexpr int kCy[kQ] = {0, 0, 0,  1, -1, 0, 0,
                                1, -1, 1, -1, -1, 1, 1, -1};
inline constexpr int kCz[kQ] = {0, 0, 0,  0, 0,  1, -1,
                                1, -1, -1, 1, 1, -1, 1, -1};
inline constexpr int kOpposite[kQ] = {0, 2,  1, 4,  3,  6,  5, 8,
                                      7, 10, 9, 12, 11, 14, 13};
inline constexpr double kW[kQ] = {
    2.0 / 9,  1.0 / 9,  1.0 / 9,  1.0 / 9,  1.0 / 9,
    1.0 / 9,  1.0 / 9,  1.0 / 72, 1.0 / 72, 1.0 / 72,
    1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72};

inline double equilibrium(int i, double rho, double ux, double uy,
                          double uz) {
  const double cu = 3.0 * (kCx[i] * ux + kCy[i] * uy + kCz[i] * uz);
  const double u2 = 1.5 * (ux * ux + uy * uy + uz * uz);
  return kW[i] * rho * (1.0 + cu + 0.5 * cu * cu - u2);
}

// The 3D forms of the lbm2d.hpp kernels, with the same pass contracts.
// 3D has no in-place sweep: collide_stream always sweeps into the second
// population slab and swaps, so every domain keeps both slabs.
void set_equilibrium(Domain3D& d);
void set_equilibrium_both(Domain3D& d);
void collide_stream(Domain3D& d, ComputePass pass = ComputePass::kFull);
void moments(Domain3D& d, ComputePass pass = ComputePass::kFull);

}  // namespace subsonic::lbm3d
