// Index-space primitives: grid extents and half-open index boxes in two and
// three dimensions.  All coordinates are signed (int) so that ghost-cell
// coordinates (negative) are representable without casts.  These two are
// the only grid types that keep a struct per dimension (hundreds of call
// sites build them as aggregates with named members); GridTypes<Dim> names
// the pair a dimension uses, and everything above them is one template.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <type_traits>

#include "src/util/check.hpp"

namespace subsonic {

/// Size of a 2D grid (interior nodes only, no padding).
struct Extents2 {
  int nx = 0;
  int ny = 0;

  constexpr std::int64_t count() const {
    return static_cast<std::int64_t>(nx) * ny;
  }
  constexpr bool contains(int x, int y) const {
    return x >= 0 && x < nx && y >= 0 && y < ny;
  }
  /// Node counts by axis, for code written once over both dimensions.
  constexpr std::array<int, 2> sizes() const { return {nx, ny}; }
  friend constexpr bool operator==(Extents2, Extents2) = default;
};

/// Size of a 3D grid.
struct Extents3 {
  int nx = 0;
  int ny = 0;
  int nz = 0;

  constexpr std::int64_t count() const {
    return static_cast<std::int64_t>(nx) * ny * nz;
  }
  constexpr bool contains(int x, int y, int z) const {
    return x >= 0 && x < nx && y >= 0 && y < ny && z >= 0 && z < nz;
  }
  constexpr std::array<int, 3> sizes() const { return {nx, ny, nz}; }
  friend constexpr bool operator==(Extents3, Extents3) = default;
};

/// Half-open index box [lo.x, hi.x) x [lo.y, hi.y).
struct Box2 {
  int x0 = 0, y0 = 0;  // inclusive
  int x1 = 0, y1 = 0;  // exclusive

  constexpr int width() const { return x1 - x0; }
  constexpr int height() const { return y1 - y0; }
  constexpr std::int64_t count() const {
    return static_cast<std::int64_t>(width()) * height();
  }
  constexpr bool empty() const { return x1 <= x0 || y1 <= y0; }
  constexpr bool contains(int x, int y) const {
    return x >= x0 && x < x1 && y >= y0 && y < y1;
  }

  constexpr Box2 intersect(const Box2& o) const {
    Box2 r{std::max(x0, o.x0), std::max(y0, o.y0), std::min(x1, o.x1),
           std::min(y1, o.y1)};
    if (r.empty()) return Box2{};
    return r;
  }

  /// Box grown by g nodes on every side (the padded footprint).
  constexpr Box2 grown(int g) const {
    return Box2{x0 - g, y0 - g, x1 + g, y1 + g};
  }

  /// Corners by axis, for code written once over both dimensions.
  constexpr std::array<int, 2> lo() const { return {x0, y0}; }
  constexpr std::array<int, 2> hi() const { return {x1, y1}; }

  /// The box moved by d[a] nodes along each axis a.
  constexpr Box2 shifted(const std::array<int, 2>& d) const {
    return Box2{x0 + d[0], y0 + d[1], x1 + d[0], y1 + d[1]};
  }

  friend constexpr bool operator==(const Box2&, const Box2&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Box2& b) {
    return os << "[" << b.x0 << "," << b.x1 << ")x[" << b.y0 << "," << b.y1
              << ")";
  }
};

/// Half-open index box in 3D.
struct Box3 {
  int x0 = 0, y0 = 0, z0 = 0;
  int x1 = 0, y1 = 0, z1 = 0;

  constexpr int width() const { return x1 - x0; }
  constexpr int height() const { return y1 - y0; }
  constexpr int depth() const { return z1 - z0; }
  constexpr std::int64_t count() const {
    return static_cast<std::int64_t>(width()) * height() * depth();
  }
  constexpr bool empty() const { return x1 <= x0 || y1 <= y0 || z1 <= z0; }
  constexpr bool contains(int x, int y, int z) const {
    return x >= x0 && x < x1 && y >= y0 && y < y1 && z >= z0 && z < z1;
  }

  constexpr Box3 intersect(const Box3& o) const {
    Box3 r{std::max(x0, o.x0), std::max(y0, o.y0), std::max(z0, o.z0),
           std::min(x1, o.x1), std::min(y1, o.y1), std::min(z1, o.z1)};
    if (r.empty()) return Box3{};
    return r;
  }

  constexpr Box3 grown(int g) const {
    return Box3{x0 - g, y0 - g, z0 - g, x1 + g, y1 + g, z1 + g};
  }

  constexpr std::array<int, 3> lo() const { return {x0, y0, z0}; }
  constexpr std::array<int, 3> hi() const { return {x1, y1, z1}; }

  constexpr Box3 shifted(const std::array<int, 3>& d) const {
    return Box3{x0 + d[0], y0 + d[1], z0 + d[2],
                x1 + d[0], y1 + d[1], z1 + d[2]};
  }

  friend constexpr bool operator==(const Box3&, const Box3&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Box3& b) {
    return os << "[" << b.x0 << "," << b.x1 << ")x[" << b.y0 << "," << b.y1
              << ")x[" << b.z0 << "," << b.z1 << ")";
  }
};

/// The box with corners `lo` (inclusive) and `hi` (exclusive).
constexpr Box2 box_from(const std::array<int, 2>& lo,
                        const std::array<int, 2>& hi) {
  return Box2{lo[0], lo[1], hi[0], hi[1]};
}
constexpr Box3 box_from(const std::array<int, 3>& lo,
                        const std::array<int, 3>& hi) {
  return Box3{lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]};
}

constexpr Box2 full_box(Extents2 e) { return Box2{0, 0, e.nx, e.ny}; }
constexpr Box3 full_box(Extents3 e) {
  return Box3{0, 0, 0, e.nx, e.ny, e.nz};
}

/// The interior extents of a box.
constexpr Extents2 extents_of(const Box2& b) { return {b.width(), b.height()}; }
constexpr Extents3 extents_of(const Box3& b) {
  return {b.width(), b.height(), b.depth()};
}

/// The extents and box types of dimension Dim.
template <int Dim>
struct GridTypes {
  static_assert(Dim == 2 || Dim == 3);
  using Extents = std::conditional_t<Dim == 2, Extents2, Extents3>;
  using Box = std::conditional_t<Dim == 2, Box2, Box3>;
};

/// Calls fn(y, z) for every pencil (row along x) of box `b`, z outer, then
/// y: the order of every pencil walk (payloads, dumps, reductions, span
/// tables).  A 2D box is the one plane z = 0.  The x extent is the
/// caller's to read.
template <typename Box, typename Fn>
void for_each_pencil(const Box& b, Fn&& fn) {
  const auto lo = b.lo(), hi = b.hi();
  const bool flat = lo.size() == 2;
  const int z0 = flat ? 0 : lo.back(), z1 = flat ? 1 : hi.back();
  for (int z = z0; z < z1; ++z)
    for (int y = lo[1]; y < hi[1]; ++y) fn(y, z);
}

}  // namespace subsonic
