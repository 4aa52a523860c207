// The LB lattices of the two dimensions, D2Q9 and D3Q15 (paper section 6
// and Skordos, Phys. Rev. E 48(6), 1993), and the adapter through which
// code written once over both reaches them: Lattice<Dim> names a lattice's
// constants, its equilibrium and its per-lattice span kernels, and the LB
// kernels (lbm.hpp), the domain's population slab, the boundary pass, the
// schedule and DomainTraits read nothing else.
#pragma once

#include <array>

#include "src/solver/lbm_kernels.hpp"

namespace subsonic {

namespace lbm2d {

inline constexpr int kQ = 9;

/// Lattice velocities by axis: rest, +x, +y, -x, -y, then the four
/// diagonals.
inline constexpr int kC[2][kQ] = {{0, 1, 0, -1, 0, 1, -1, -1, 1},
                                  {0, 0, 1, 0, -1, 1, 1, -1, -1}};
inline constexpr const int (&kCx)[kQ] = kC[0];
inline constexpr const int (&kCy)[kQ] = kC[1];
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

}  // namespace lbm2d

/// D3Q15: rest population, six axis neighbours, eight cube corners
/// (c_s^2 = 1/3).  Five populations cross any axis-aligned subregion face
/// — the "5 variables per fluid node" communication count the paper
/// quotes for 3D LB (section 6).
namespace lbm3d {

inline constexpr int kQ = 15;

inline constexpr int kC[3][kQ] = {
    {0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, -1, 1},
    {0, 0, 0, 1, -1, 0, 0, 1, -1, 1, -1, -1, 1, 1, -1},
    {0, 0, 0, 0, 0, 1, -1, 1, -1, -1, 1, 1, -1, 1, -1}};
inline constexpr const int (&kCx)[kQ] = kC[0];
inline constexpr const int (&kCy)[kQ] = kC[1];
inline constexpr const int (&kCz)[kQ] = kC[2];
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

}  // namespace lbm3d

/// The lattice of a dimension: kQ populations with velocities kC[axis][i],
/// kOpposite[i] the reversed direction, equilibrium(i, rho, u) the same
/// arithmetic as lbm2d:: or lbm3d::equilibrium, and the collide-scatter
/// span kernels of lbm_kernels.hpp: span_kernel(level) the fast path,
/// cell() the guarded one.
template <int Dim>
struct Lattice;

template <>
struct Lattice<2> {
  static constexpr int kQ = lbm2d::kQ;
  static constexpr const auto& kC = lbm2d::kC;
  static constexpr const auto& kOpposite = lbm2d::kOpposite;
  static double equilibrium(int i, double rho,
                            const std::array<double, 2>& u) {
    return lbm2d::equilibrium(i, rho, u[0], u[1]);
  }
  static lbm_kernels::Fn<2> span_kernel(SimdLevel level) {
    return lbm_kernels::select2d(level);
  }
  static void cell(const lbm_kernels::Row<2>& r, int x, int x0, int x1,
                   const lbm_kernels::Collide<2>& c) {
    lbm_kernels::collide_scatter2d_cell(r, x, x0, x1, c);
  }
};

template <>
struct Lattice<3> {
  static constexpr int kQ = lbm3d::kQ;
  static constexpr const auto& kC = lbm3d::kC;
  static constexpr const auto& kOpposite = lbm3d::kOpposite;
  static double equilibrium(int i, double rho,
                            const std::array<double, 3>& u) {
    return lbm3d::equilibrium(i, rho, u[0], u[1], u[2]);
  }
  static lbm_kernels::Fn<3> span_kernel(SimdLevel level) {
    return lbm_kernels::select3d(level);
  }
  static void cell(const lbm_kernels::Row<3>& r, int x, int x0, int x1,
                   const lbm_kernels::Collide<3>& c) {
    lbm_kernels::collide_scatter3d_cell(r, x, x0, x1, c);
  }
};

}  // namespace subsonic
