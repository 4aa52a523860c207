// Static uniform domain decomposition (paper section 3).  The global grid
// is split into (J x K) rectangular subregions in 2D, (J x K x L) in 3D.
// Ranks are assigned row-major (x fastest).  Each subregion knows its box
// in global coordinates and its neighbours under a given stencil shape.
#pragma once

#include <array>
#include <vector>

#include "src/decomp/stencil.hpp"
#include "src/geometry/grid_types.hpp"
#include "src/geometry/mask.hpp"
#include "src/grid/extents.hpp"

namespace subsonic {

/// Subregion grid of a decomposition, dimension-agnostic: the 2D runtimes
/// require jz == 1 (the paper's (J x K) decompositions; (J x K x L) in 3D).
struct GridShape {
  int jx = 1;
  int jy = 1;
  int jz = 1;
};

/// Which axes (x, y, z) wrap around; 2D reads the first two.
using Periodicity = std::array<bool, 3>;

/// A neighbour link: the neighbouring rank plus the offset direction
/// (dx, dy, dz in {-1,0,1}) from this subregion toward the neighbour.
struct NeighborLink {
  int rank = -1;
  int dx = 0;
  int dy = 0;
  int dz = 0;

  friend constexpr bool operator==(const NeighborLink&,
                                   const NeighborLink&) = default;
};

/// 2D decomposition of a global grid into jx * jy subregions.  Subregion
/// sizes differ by at most one node per axis when the grid does not divide
/// evenly.
class Decomposition2D {
 public:
  Decomposition2D(Extents2 global, int jx, int jy);
  /// The same over `grid`, which must have jz == 1.
  Decomposition2D(Extents2 global, const GridShape& grid);

  Extents2 global() const { return global_; }
  int jx() const { return jx_; }
  int jy() const { return jy_; }
  int rank_count() const { return jx_ * jy_; }

  /// Subregions per axis, a rank's grid coordinates and the rank at given
  /// coordinates, by axis: for code written once over both dimensions.
  std::array<int, 2> counts() const { return {jx_, jy_}; }
  std::array<int, 2> coords(int rank) const {
    return {coord_x(rank), coord_y(rank)};
  }
  int rank_at(const std::array<int, 2>& c) const { return rank_of(c[0], c[1]); }

  /// Grid-cell box of subregion (i, j), in global coordinates.
  Box2 box(int i, int j) const;
  Box2 box(int rank) const { return box(coord_x(rank), coord_y(rank)); }

  int rank_of(int i, int j) const { return j * jx_ + i; }
  int coord_x(int rank) const { return rank % jx_; }
  int coord_y(int rank) const { return rank / jx_; }

  /// Which subregion owns global node (x, y).
  int owner_of(int x, int y) const;

  /// Neighbours of `rank` under `shape`, in deterministic order
  /// (dy outer, dx inner, skipping self and off-grid offsets).
  std::vector<NeighborLink> neighbors(int rank, StencilShape shape) const;

  /// Number of boundary nodes of `rank` that must be sent to neighbours
  /// under `shape` and ghost width `g` (the paper's N_c).  Counts each node
  /// once per receiving neighbour, matching the bytes actually sent.
  std::int64_t comm_node_count(int rank, StencilShape shape, int g) const;

  /// The paper's geometry factor m (section 8 table): N_c ~= m * N^(1/2).
  /// Reproduces {Px1: 2, 2x2: 2, 3x3: 3, 4x4: 4, 5x4: 4}.
  int paper_m() const;

  /// Largest number of communicating edges any subregion has (star shape).
  int max_comm_edges() const;
  /// Mean communicating edges per subregion (star shape).
  double mean_comm_edges() const;

  /// Worst-case difference in integration step between any two processes
  /// when one process stops (Appendix A, eqs. 22-23).
  int max_unsync(StencilShape shape) const;

 private:
  Extents2 global_;
  int jx_ = 1;
  int jy_ = 1;
};

/// 3D decomposition into jx * jy * jz subregions.
class Decomposition3D {
 public:
  Decomposition3D(Extents3 global, int jx, int jy, int jz);
  Decomposition3D(Extents3 global, const GridShape& grid)
      : Decomposition3D(global, grid.jx, grid.jy, grid.jz) {}

  Extents3 global() const { return global_; }
  int jx() const { return jx_; }
  int jy() const { return jy_; }
  int jz() const { return jz_; }
  int rank_count() const { return jx_ * jy_ * jz_; }

  std::array<int, 3> counts() const { return {jx_, jy_, jz_}; }
  std::array<int, 3> coords(int rank) const {
    return {coord_x(rank), coord_y(rank), coord_z(rank)};
  }
  int rank_at(const std::array<int, 3>& c) const {
    return rank_of(c[0], c[1], c[2]);
  }

  Box3 box(int i, int j, int k) const;
  Box3 box(int rank) const {
    return box(coord_x(rank), coord_y(rank), coord_z(rank));
  }

  int rank_of(int i, int j, int k) const { return (k * jy_ + j) * jx_ + i; }
  int coord_x(int rank) const { return rank % jx_; }
  int coord_y(int rank) const { return (rank / jx_) % jy_; }
  int coord_z(int rank) const { return rank / (jx_ * jy_); }

  int owner_of(int x, int y, int z) const;

  std::vector<NeighborLink> neighbors(int rank, StencilShape shape) const;

  std::int64_t comm_node_count(int rank, StencilShape shape, int g) const;

  /// m such that N_c ~= m * N^(2/3); the paper uses m = 2 for (Px1x1).
  int paper_m() const;

  int max_unsync(StencilShape shape) const;

 private:
  Extents3 global_;
  int jx_ = 1;
  int jy_ = 1;
  int jz_ = 1;
};

/// Splits `n` nodes over `parts` parts as evenly as possible; part `i`
/// gets [start(i), start(i+1)).  Larger parts come first.
int even_split_start(int n, int parts, int i);

/// Ranks whose subregion needs a process, ascending: those whose box grown
/// by one node holds a non-wall node.  The grown box is clipped to the
/// grid, or wrapped on a `periodic` axis.  An entirely solid subregion
/// that borders no fluid needs no process (paper Figure 2: 15 of 24
/// active).  One that does border fluid stays active: its wall nodes sit
/// in the neighbour's ghost ring, and only their owner updates the
/// populations that LB bounce-back reflects into the fluid.
template <typename Decomp, typename Mask>
std::vector<int> active_ranks(const Decomp& d, const Mask& mask,
                              const Periodicity& periodic = {});

}  // namespace subsonic
