// The concrete grid types of one dimension, for code written once over
// both: the domain, the boundary pass, the dump codec, the block layer,
// the link planner and DomainTraits.  Fields, span tables, masks and boxes
// keep their own 2D and 3D classes; this map names which one a dimension
// uses, and the accessors below read a 2D and a 3D object the same way.
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>

#include "src/geometry/mask.hpp"
#include "src/grid/extents.hpp"
#include "src/grid/mask_spans.hpp"
#include "src/grid/padded_field.hpp"

namespace subsonic {

class Decomposition2D;  // src/decomp/decomposition.hpp
class Decomposition3D;

template <int Dim>
struct GridTypes {
  static_assert(Dim == 2 || Dim == 3);
  template <typename A, typename B>
  using Pick = std::conditional_t<Dim == 2, A, B>;
  using Extents = Pick<Extents2, Extents3>;
  using Box = Pick<Box2, Box3>;
  using Mask = Pick<Mask2D, Mask3D>;
  using Spans = Pick<MaskSpans2D, MaskSpans3D>;
  template <typename T>
  using Field = Pick<PaddedField2D<T>, PaddedField3D<T>>;
  using Decomp = Pick<Decomposition2D, Decomposition3D>;
};

/// The interior extents of a box.
constexpr Extents2 extents_of(const Box2& b) { return {b.width(), b.height()}; }
constexpr Extents3 extents_of(const Box3& b) {
  return {b.width(), b.height(), b.depth()};
}

/// Pencil (y, z) of a field or span table: p[x] is node (x, y, z).  A 2D
/// object is the one plane z = 0, and ignores z.
template <typename T>
T* pencil(PaddedField2D<T>& f, int y, int) { return f.row_ptr(y); }
template <typename T>
const T* pencil(const PaddedField2D<T>& f, int y, int) { return f.row_ptr(y); }
template <typename T>
T* pencil(PaddedField3D<T>& f, int y, int z) { return f.row_ptr(y, z); }
template <typename T>
const T* pencil(const PaddedField3D<T>& f, int y, int z) {
  return f.row_ptr(y, z);
}
inline std::span<const MaskSpan> pencil(const MaskSpans2D& s, int y, int) {
  return s.row(y);
}
inline std::span<const MaskSpan> pencil(const MaskSpans3D& s, int y, int z) {
  return s.row(y, z);
}

/// Calls fn(a, b) for every span of pencil (y, z) of `s` clipped to
/// [x0, x1).
template <typename Spans, typename Fn>
void for_spans(const Spans& s, int y, int z, int x0, int x1, Fn&& fn) {
  for (const MaskSpan& m : pencil(s, y, z)) {
    const int a = std::max(m.x0, x0);
    const int b = std::min(m.x1, x1);
    if (a < b) fn(a, b);
  }
}

}  // namespace subsonic
