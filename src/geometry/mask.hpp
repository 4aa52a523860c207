// Obstacle masks: a NodeType per grid node, padded like the fluid fields so
// that stencil code can interrogate neighbour types without bounds checks.
// One class template serves both dimensions; a 2D mask is the one plane
// z = 0.
#pragma once

#include <algorithm>
#include <cstdint>

#include "src/geometry/node_type.hpp"
#include "src/grid/extents.hpp"
#include "src/grid/padded_field.hpp"

namespace subsonic {

/// Node-type mask.  Ghost nodes default to kWall so that the domain is
/// closed unless the geometry explicitly opens it (inlets / outlets).
/// Nodes are addressed as (x, y) in 2D and (x, y, z) in 3D.
template <int Dim>
class Mask {
 public:
  using Extents = typename GridTypes<Dim>::Extents;
  using Box = typename GridTypes<Dim>::Box;

  Mask() = default;
  Mask(Extents extents, int ghost) : types_(extents, ghost) {
    types_.fill(static_cast<std::uint8_t>(NodeType::kWall));
    fill_box(full_box(extents), NodeType::kFluid);
  }

  Extents extents() const { return types_.interior(); }
  int ghost() const { return types_.ghost(); }

  template <typename... I>
    requires(sizeof...(I) == Dim)
  NodeType operator()(I... c) const {
    return static_cast<NodeType>(types_(c...));
  }
  void set(int x, int y, NodeType t) requires(Dim == 2) {
    types_(x, y) = static_cast<std::uint8_t>(t);
  }
  void set(int x, int y, int z, NodeType t) requires(Dim == 3) {
    types_(x, y, z) = static_cast<std::uint8_t>(t);
  }

  /// Pencil (y, z) of the mask: p[x] is the NodeType byte of node
  /// (x, y, z), padding included.  A 2D mask ignores z.
  const std::uint8_t* pencil(int y, int z = 0) const {
    return types_.pencil(y, z);
  }

  /// Marks every node in `box` (clipped to the interior) as `t`.
  void fill_box(Box box, NodeType t) {
    const Box clipped = box.intersect(full_box(extents()));
    const int x0 = clipped.lo()[0], x1 = clipped.hi()[0];
    for_each_pencil(clipped, [&](int y, int z) {
      std::uint8_t* p = types_.pencil(y, z);
      std::fill(p + x0, p + x1, static_cast<std::uint8_t>(t));
    });
  }

  /// True when every node of `box` (which must lie inside the interior or
  /// its padding) is solid wall — the test active_ranks runs on a box
  /// grown by one node to drop inactive subregions (Fig. 2).
  bool all_solid(Box box) const {
    return box.empty() || count_box(box, NodeType::kWall) == box.count();
  }

  std::int64_t count(NodeType t) const {
    return count_box(full_box(extents()), t);
  }

  /// Nodes of type `t` inside `box` (which must lie inside the interior
  /// or its padding) — e.g. a rank's fluid-cell work weight.
  std::int64_t count_box(Box box, NodeType t) const {
    std::int64_t n = 0;
    if (box.empty()) return n;
    const int x0 = box.lo()[0], x1 = box.hi()[0];
    for_each_pencil(box, [&](int y, int z) {
      const std::uint8_t* p = pencil(y, z);
      n += std::count(p + x0, p + x1, static_cast<std::uint8_t>(t));
    });
    return n;
  }

 private:
  PaddedField<std::uint8_t, Dim> types_;
};

using Mask2D = Mask<2>;
using Mask3D = Mask<3>;

}  // namespace subsonic
