// Static uniform domain decomposition (paper section 3).  The global grid
// is split into (J x K) rectangular subregions in 2D, (J x K x L) in 3D,
// by one class template over the dimension.  Ranks are assigned row-major
// (x fastest).  Each subregion knows its box in global coordinates and its
// neighbours under a given stencil shape.
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

/// Decomposition of a global grid into jx * jy (* jz) subregions.
/// Subregion sizes differ by at most one node per axis when the grid does
/// not divide evenly.  Coordinates, counts and boxes are by axis; a 2D
/// decomposition has no z axis (its links carry dz = 0).
template <int Dim>
class Decomposition {
 public:
  using Extents = typename GridTypes<Dim>::Extents;
  using Box = typename GridTypes<Dim>::Box;
  using Coords = std::array<int, Dim>;

  /// The decomposition over `grid`; a 2D one requires jz == 1.
  Decomposition(Extents global, const GridShape& grid);
  /// The same from the subregion counts jx, jy (, jz).
  template <typename... J>
    requires(sizeof...(J) == Dim)
  Decomposition(Extents global, J... j)
      : Decomposition(global, GridShape{static_cast<int>(j)...}) {}

  Extents global() const { return global_; }
  int jx() const { return j_[0]; }
  int jy() const { return j_[1]; }
  int jz() const requires(Dim == 3) { return j_[2]; }
  int rank_count() const {
    int n = 1;
    for (int c : j_) n *= c;
    return n;
  }

  /// Subregions per axis, a rank's grid coordinates and the rank at given
  /// coordinates.  Ranks run x fastest, then y, then z.
  const Coords& counts() const { return j_; }
  Coords coords(int rank) const;
  int rank_at(const Coords& c) const;

  /// Grid-cell box of subregion (i, j[, k]) or of a rank, in global
  /// coordinates.
  template <typename... I>
    requires(sizeof...(I) == Dim)
  Box box(I... c) const {
    return box_at(Coords{c...});
  }
  Box box(int rank) const { return box_at(coords(rank)); }

  template <typename... I>
    requires(sizeof...(I) == Dim)
  int rank_of(I... c) const {
    return rank_at(Coords{c...});
  }
  int coord_x(int rank) const { return coords(rank)[0]; }
  int coord_y(int rank) const { return coords(rank)[1]; }
  int coord_z(int rank) const requires(Dim == 3) { return coords(rank)[2]; }

  /// Which subregion owns global node (x, y[, z]).
  template <typename... I>
    requires(sizeof...(I) == Dim)
  int owner_of(I... c) const {
    return owner_at(Coords{c...});
  }

  /// Neighbours of `rank` under `shape`, in deterministic order (dz
  /// outer, then dy, dx inner, skipping self and off-grid offsets).
  std::vector<NeighborLink> neighbors(int rank, StencilShape shape) const;

  /// Number of boundary nodes of `rank` that must be sent to neighbours
  /// under `shape` and ghost width `g` (the paper's N_c).  Counts each node
  /// once per receiving neighbour, matching the bytes actually sent.
  std::int64_t comm_node_count(int rank, StencilShape shape, int g) const;

  /// The paper's geometry factor m (section 8 table): N_c ~= m * N^(1/2)
  /// in 2D, reproducing {Px1: 2, 2x2: 2, 3x3: 3, 4x4: 4, 5x4: 4};
  /// N_c ~= m * N^(2/3) in 3D, where the paper uses m = 2 for (Px1x1).
  int paper_m() const;

  /// Largest number of communicating edges any subregion has (star shape).
  int max_comm_edges() const requires(Dim == 2);
  /// Mean communicating edges per subregion (star shape).
  double mean_comm_edges() const requires(Dim == 2);

  /// Worst-case difference in integration step between any two processes
  /// when one process stops (Appendix A, eqs. 22-23).
  int max_unsync(StencilShape shape) const;

 private:
  Box box_at(const Coords& c) const;
  int owner_at(const Coords& node) const;

  Extents global_;
  Coords j_{};
};

using Decomposition2D = Decomposition<2>;
using Decomposition3D = Decomposition<3>;

extern template class Decomposition<2>;
extern template class Decomposition<3>;

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
template <int Dim>
std::vector<int> active_ranks(const Decomposition<Dim>& d,
                              const Mask<Dim>& mask,
                              const Periodicity& periodic = {});

}  // namespace subsonic
