// Lattice Boltzmann method on the D2Q9 lattice (paper section 6 and
// Skordos, Phys. Rev. E 48(6), 1993).  BGK relaxation toward the second-
// order equilibrium, full-way bounce-back at wall nodes, and a body-force
// term for driven channel flows.
//
// Per-step schedule (paper section 6):
//   relax F_i (inner) -> shift F_i (inner) -> communicate F_i (boundary)
//   -> compute rho, V from F_i (inner) -> filter rho, V (inner)
#pragma once

#include "src/solver/domain.hpp"
#include "src/solver/pass.hpp"

namespace subsonic::lbm2d {

inline constexpr int kQ = 9;

/// Lattice velocities: rest, +x, +y, -x, -y, then the four diagonals.
inline constexpr int kCx[kQ] = {0, 1, 0, -1, 0, 1, -1, -1, 1};
inline constexpr int kCy[kQ] = {0, 0, 1, 0, -1, 1, 1, -1, -1};
inline constexpr int kOpposite[kQ] = {0, 3, 4, 1, 2, 7, 8, 5, 6};
inline constexpr double kW[kQ] = {4.0 / 9,  1.0 / 9,  1.0 / 9,
                                  1.0 / 9,  1.0 / 9,  1.0 / 36,
                                  1.0 / 36, 1.0 / 36, 1.0 / 36};

/// Second-order BGK equilibrium for population i (c_s^2 = 1/3).
inline double equilibrium(int i, double rho, double ux, double uy) {
  const double cu = 3.0 * (kCx[i] * ux + kCy[i] * uy);
  const double u2 = 1.5 * (ux * ux + uy * uy);
  return kW[i] * rho * (1.0 + cu + 0.5 * cu * cu - u2);
}

/// Sets every population (current buffer) to the equilibrium of the
/// current macroscopic fields, on all padded nodes.
void set_equilibrium(Domain2D& d);

/// Same, but on both population buffers when the domain has two (more
/// than one thread) — required after (re)initializing the macroscopic
/// fields so the never-written exterior padding of either buffer holds
/// the reservoir state.
void set_equilibrium_both(Domain2D& d);

/// Fused collide + stream, one push sweep (DESIGN.md 5g): each source
/// row's post-collision values (BGK at computed nodes, bounce-back at
/// walls, reservoir equilibrium at inlets) are computed once and
/// scattered along all q directions into the destination buffer; sources
/// include a one-node ghost ring so streams cross subregion boundaries.
/// A one-thread domain runs the sweep in place on its single slab,
/// shifting the view origin and carrying the ghost ring with it; more
/// threads sweep into the second slab and swap.  The sweep does not
/// split: kFull and kBand run it whole and kInterior is empty, which
/// still partitions kFull.  Scalar vs AVX2 and in-place vs two-slab are
/// bitwise identical.
void collide_stream(Domain2D& d, ComputePass pass = ComputePass::kFull);

/// Recomputes rho, vx, vy from the populations (ghost populations were
/// just communicated); walls keep their statics.  kInterior covers the
/// interior nodes, kBand the ghost ring (the width-g frame of the padded
/// window, the nodes whose populations the exchange fills), kFull both.
/// A node's moments read only that node, so any split is bitwise equal
/// to kFull.
void moments(Domain2D& d, ComputePass pass = ComputePass::kFull);

}  // namespace subsonic::lbm2d
