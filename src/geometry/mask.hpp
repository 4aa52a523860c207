// Obstacle masks: a NodeType per grid node, padded like the fluid fields so
// that stencil code can interrogate neighbour types without bounds checks.
#pragma once

#include <cstdint>

#include "src/geometry/node_type.hpp"
#include "src/grid/extents.hpp"
#include "src/grid/padded_field.hpp"

namespace subsonic {

/// 2D node-type mask.  Ghost nodes default to kWall so that the domain is
/// closed unless the geometry explicitly opens it (inlets / outlets).
class Mask2D {
 public:
  Mask2D() = default;
  Mask2D(Extents2 extents, int ghost)
      : types_(extents, ghost) {
    types_.fill(static_cast<std::uint8_t>(NodeType::kWall));
    for (int y = 0; y < extents.ny; ++y)
      for (int x = 0; x < extents.nx; ++x)
        set(x, y, NodeType::kFluid);
  }

  Extents2 extents() const { return types_.interior(); }
  int ghost() const { return types_.ghost(); }

  NodeType operator()(int x, int y) const {
    return static_cast<NodeType>(types_(x, y));
  }
  void set(int x, int y, NodeType t) {
    types_(x, y) = static_cast<std::uint8_t>(t);
  }

  /// Marks every node in `box` (clipped to the interior) as `t`.
  void fill_box(Box2 box, NodeType t) {
    const Box2 clipped = box.intersect(full_box(extents()));
    for (int y = clipped.y0; y < clipped.y1; ++y)
      for (int x = clipped.x0; x < clipped.x1; ++x) set(x, y, t);
  }

  /// True when every node of `box` (which must lie inside the interior or
  /// its padding) is solid wall — the test active_ranks runs on a box
  /// grown by one node to drop inactive subregions (Fig. 2).
  bool all_solid(Box2 box) const {
    for (int y = box.y0; y < box.y1; ++y)
      for (int x = box.x0; x < box.x1; ++x)
        if ((*this)(x, y) != NodeType::kWall) return false;
    return true;
  }

  std::int64_t count(NodeType t) const {
    std::int64_t n = 0;
    for (int y = 0; y < extents().ny; ++y)
      for (int x = 0; x < extents().nx; ++x)
        if ((*this)(x, y) == t) ++n;
    return n;
  }

  /// Nodes of type `t` inside `box` (which must lie inside the interior
  /// or its padding) — e.g. a rank's fluid-cell work weight.
  std::int64_t count_box(Box2 box, NodeType t) const {
    std::int64_t n = 0;
    for (int y = box.y0; y < box.y1; ++y)
      for (int x = box.x0; x < box.x1; ++x)
        if ((*this)(x, y) == t) ++n;
    return n;
  }

 private:
  PaddedField2D<std::uint8_t> types_;
};

/// 3D node-type mask with the same conventions.
class Mask3D {
 public:
  Mask3D() = default;
  Mask3D(Extents3 extents, int ghost)
      : types_(extents, ghost) {
    types_.fill(static_cast<std::uint8_t>(NodeType::kWall));
    for (int z = 0; z < extents.nz; ++z)
      for (int y = 0; y < extents.ny; ++y)
        for (int x = 0; x < extents.nx; ++x) set(x, y, z, NodeType::kFluid);
  }

  Extents3 extents() const { return types_.interior(); }
  int ghost() const { return types_.ghost(); }

  NodeType operator()(int x, int y, int z) const {
    return static_cast<NodeType>(types_(x, y, z));
  }
  void set(int x, int y, int z, NodeType t) {
    types_(x, y, z) = static_cast<std::uint8_t>(t);
  }

  void fill_box(Box3 box, NodeType t) {
    const Box3 clipped = box.intersect(full_box(extents()));
    for (int z = clipped.z0; z < clipped.z1; ++z)
      for (int y = clipped.y0; y < clipped.y1; ++y)
        for (int x = clipped.x0; x < clipped.x1; ++x) set(x, y, z, t);
  }

  bool all_solid(Box3 box) const {
    for (int z = box.z0; z < box.z1; ++z)
      for (int y = box.y0; y < box.y1; ++y)
        for (int x = box.x0; x < box.x1; ++x)
          if ((*this)(x, y, z) != NodeType::kWall) return false;
    return true;
  }

  std::int64_t count_box(Box3 box, NodeType t) const {
    std::int64_t n = 0;
    for (int z = box.z0; z < box.z1; ++z)
      for (int y = box.y0; y < box.y1; ++y)
        for (int x = box.x0; x < box.x1; ++x)
          if ((*this)(x, y, z) == t) ++n;
    return n;
  }

 private:
  PaddedField3D<std::uint8_t> types_;
};

}  // namespace subsonic
