// Lattice Boltzmann method (paper section 6 and Skordos, Phys. Rev. E
// 48(6), 1993) on D2Q9 in 2D and D3Q15 in 3D (lattice.hpp): BGK
// relaxation toward the second-order equilibrium, full-way bounce-back at
// wall nodes, and a body-force term for driven channel flows.  Each kernel
// is written once over Dim and instantiated for both.
//
// Per-step schedule (paper section 6):
//   relax F_i (inner) -> shift F_i (inner) -> communicate F_i (boundary)
//   -> compute rho, V from F_i (inner) -> filter rho, V (inner)
#pragma once

#include "src/solver/domain.hpp"
#include "src/solver/pass.hpp"

namespace subsonic::lbm {

/// Sets every population (current buffer) to the equilibrium of the
/// current macroscopic fields, on all padded nodes.
template <int Dim>
void set_equilibrium(Domain<Dim>& d);

/// Same, but on both population buffers when the domain has two —
/// required after (re)initializing the macroscopic fields so the
/// never-written exterior padding of either buffer holds the reservoir
/// state.
template <int Dim>
void set_equilibrium_both(Domain<Dim>& d);

/// Fused collide + stream, one push sweep (DESIGN.md 5g): each source
/// pencil's post-collision values (BGK at computed nodes, bounce-back at
/// walls, reservoir equilibrium at inlets) are computed once and
/// scattered along all q directions into the destination buffer; sources
/// include a one-node ghost ring so streams cross subregion boundaries.
/// A one-thread 2D domain runs the sweep in place on its single slab,
/// shifting the view origin and carrying the ghost ring with it; more
/// threads, and 3D, sweep into the second slab and swap.  The sweep does
/// not split: kFull and kBand run it whole and kInterior is empty, which
/// still partitions kFull.  Scalar vs AVX2 and in-place vs two-slab are
/// bitwise identical.
template <int Dim>
void collide_stream(Domain<Dim>& d, ComputePass pass = ComputePass::kFull);

/// Recomputes rho and the velocities from the populations (ghost
/// populations were just communicated); walls keep their statics.
/// kInterior covers the interior nodes, kBand the ghost ring (the width-g
/// frame of the padded window, the nodes whose populations the exchange
/// fills), kFull both.  A node's moments read only that node, so any
/// split is bitwise equal to kFull.
template <int Dim>
void moments(Domain<Dim>& d, ComputePass pass = ComputePass::kFull);

}  // namespace subsonic::lbm
