// Inner span kernels of the fused LB collide-stream sweep (lbm.cpp sets
// up the rows, these do the per-cell arithmetic).  The sweep
// is a *push*: for one source row it computes the post-collision
// populations once per cell and scatters each direction i into its
// destination plane at (x + cx_i, y + cy_i).  Because every direction
// lives in its own PaddedField plane, destination row r of plane i is
// written only from source row r - cy_i — so sharding source rows across
// threads writes disjoint rows of every plane and stays bitwise
// thread-invariant, exactly like the unfused kernels.
//
// The caller pre-shifts the destination pointers by cx_i (d[i][x] aliases
// plane i at (x + cx_i, y + cy_i)), so the fast span kernel is branch-free
// over [a, b).  Cells near box edges, where some direction would land
// outside, go through the guarded _cell variants instead.
//
// Both the scalar and the AVX2 kernels evaluate the exact operation tree
// of the original relax pass (same association, no FMA), so every level
// produces bit-identical populations.
#pragma once

#include "src/solver/simd.hpp"

namespace subsonic::lbm_kernels {

/// One source pencil of the sweep: D2Q9 in 2D, D3Q15 in 3D.
template <int Dim>
struct Row {
  static constexpr int kQ = Dim == 2 ? 9 : 15;
  const double* rho;
  const double* u[Dim];  ///< velocity components by axis
  const double* s[kQ];   ///< source populations at (x, y[, z])
  double* d[kQ];         ///< pre-shifted dests; null = dest pencil outside box
};

/// Collision constants of the step.
template <int Dim>
struct Collide {
  double omega = 0;
  double g[Dim] = {};  ///< force * dt by axis
  bool forced = false;
};

/// Fast path over source cells [a, b): requires every d[i] non-null and
/// every store in range.
template <int Dim>
using Fn = void (*)(const Row<Dim>&, int a, int b, const Collide<Dim>&);

void collide_scatter2d_scalar(const Row<2>& r, int a, int b,
                              const Collide<2>& c);
#if defined(SUBSONIC_HAVE_AVX2)
void collide_scatter2d_avx2(const Row<2>& r, int a, int b,
                            const Collide<2>& c);
#endif

/// Guarded single source cell: stores only directions whose destination
/// lands in columns [x0, x1) of a non-null row.
void collide_scatter2d_cell(const Row<2>& r, int x, int x0, int x1,
                            const Collide<2>& c);

/// The span kernel for `level` (kAvx2 assumes the CPU supports it —
/// resolve via active_simd()/set_simd, which clamp).
Fn<2> select2d(SimdLevel level);

void collide_scatter3d_scalar(const Row<3>& r, int a, int b,
                              const Collide<3>& c);
#if defined(SUBSONIC_HAVE_AVX2)
void collide_scatter3d_avx2(const Row<3>& r, int a, int b,
                            const Collide<3>& c);
#endif

void collide_scatter3d_cell(const Row<3>& r, int x, int x0, int x1,
                            const Collide<3>& c);

Fn<3> select3d(SimdLevel level);

}  // namespace subsonic::lbm_kernels
