// Boundary-first step pipeline primitives.  The paper treats communication
// time as pure loss (f = (1 + T_com/T_calc)^-1, eqs. 12-21); the remedy is
// to compute the ghost-feeding boundary band of a subregion first, post the
// sends while the interior is still being computed, and only block on the
// receives afterwards.  Every compute kernel therefore runs as one of
// three passes:
//
//   kFull     — band and interior back to back (serial runs, phases next
//               to no exchange, legacy ordering)
//   kBand     — only the part of the region that touches the exchange: the
//               outer band whose values the neighbours need (a phase that
//               produces an exchange) or the ghost ring the exchange fills
//               (a phase that consumes one)
//   kInterior — the rest, overlapped with message flight
//
// Band and interior partition the kernel's region exactly, and each node
// is computed by the same arithmetic in either pass, so kBand + kInterior
// is bitwise identical to kFull.  A kernel that cannot split (LB
// collide+stream) runs whole in kBand, and its kInterior is empty.
#pragma once

#include <algorithm>
#include <initializer_list>

#include "src/grid/extents.hpp"

namespace subsonic {

/// Per-step phase ordering of the parallel drivers.
enum class Scheduling {
  kLegacy,   ///< compute whole subregion, then send, then block on recv
  /// The producer's band (the whole producer when the consumer hides the
  /// exchange), post sends, the hiding phase's interior, complete recvs,
  /// then the consumer's band when the consumer hides it (Phase::hidden_by).
  kOverlap,
};

enum class ComputePass { kFull, kBand, kInterior };

/// Axes of a Box2 or Box3.
template <typename Box>
inline constexpr int kBoxAxes = static_cast<int>(Box{}.lo().size());

/// Fixed-capacity list of the non-empty frame boxes (range-for friendly).
template <typename Box>
struct BandBoxes {
  Box boxes[2 * kBoxAxes<Box>];
  int count = 0;
  const Box* begin() const { return boxes; }
  const Box* end() const { return boxes + count; }
};

/// The outer frame of `region` of width `w`, as up to two boxes per axis
/// that do not overlap: the two full slabs of the outermost axis first,
/// then the two slabs of the next axis clipped to the middle of the axes
/// already cut, down to x (in 2D: bottom rows, top rows, left columns,
/// right columns).  When the region is thinner than 2w along an axis, the
/// frame takes the whole of it and interior_box is empty.
template <typename Box>
BandBoxes<Box> band_boxes(const Box& region, int w) {
  BandBoxes<Box> out;
  auto lo = region.lo(), hi = region.hi();  // the middle not yet framed
  for (int a = kBoxAxes<Box> - 1; a >= 0; --a) {
    const int m0 = std::min(lo[a] + w, hi[a]);
    const int m1 = std::max(m0, hi[a] - w);
    auto low_hi = hi, high_lo = lo;
    low_hi[a] = m0;
    high_lo[a] = m1;
    for (const Box& b : {box_from(lo, low_hi), box_from(high_lo, hi)})
      if (!b.empty()) out.boxes[out.count++] = b;
    lo[a] = m0;
    hi[a] = m1;
  }
  return out;
}

/// The part of `region` not covered by band_boxes(region, w).
template <typename Box>
Box interior_box(const Box& region, int w) {
  auto lo = region.lo(), hi = region.hi();
  for (int a = 0; a < kBoxAxes<Box>; ++a) {
    lo[a] = std::min(lo[a] + w, hi[a]);
    hi[a] = std::max(lo[a], hi[a] - w);
  }
  const Box inner = box_from(lo, hi);
  return inner.empty() ? Box{} : inner;
}

}  // namespace subsonic
