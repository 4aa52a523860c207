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

/// Fixed-capacity list of the non-empty frame boxes (range-for friendly).
struct BandBoxes2 {
  Box2 boxes[4];
  int count = 0;
  const Box2* begin() const { return boxes; }
  const Box2* end() const { return boxes + count; }
};

struct BandBoxes3 {
  Box3 boxes[6];
  int count = 0;
  const Box3* begin() const { return boxes; }
  const Box3* end() const { return boxes + count; }
};

/// The outer frame of `region` of width `w`, as up to four non-overlapping
/// boxes (bottom and top rows full-width, left and right columns clipped
/// to the middle rows).  Degenerates gracefully: when the region is
/// thinner than 2w the frame is the whole region and interior_box2 is
/// empty.
inline BandBoxes2 band_boxes2(const Box2& region, int w) {
  BandBoxes2 out;
  const int ym0 = std::min(region.y0 + w, region.y1);
  const int ym1 = std::max(ym0, region.y1 - w);
  const int xm0 = std::min(region.x0 + w, region.x1);
  const int xm1 = std::max(xm0, region.x1 - w);
  const Box2 candidates[4] = {
      {region.x0, region.y0, region.x1, ym0},  // bottom rows
      {region.x0, ym1, region.x1, region.y1},  // top rows
      {region.x0, ym0, xm0, ym1},              // left columns
      {xm1, ym0, region.x1, ym1},              // right columns
  };
  for (const Box2& b : candidates)
    if (!b.empty()) out.boxes[out.count++] = b;
  return out;
}

/// The part of `region` not covered by band_boxes2(region, w).
inline Box2 interior_box2(const Box2& region, int w) {
  const int ym0 = std::min(region.y0 + w, region.y1);
  const int ym1 = std::max(ym0, region.y1 - w);
  const int xm0 = std::min(region.x0 + w, region.x1);
  const int xm1 = std::max(xm0, region.x1 - w);
  const Box2 inner{xm0, ym0, xm1, ym1};
  return inner.empty() ? Box2{} : inner;
}

/// 3D frame of width `w`: two full z-slabs, then y-slabs and x-slabs of
/// the middle block — up to six non-overlapping boxes.
inline BandBoxes3 band_boxes3(const Box3& region, int w) {
  BandBoxes3 out;
  const int zm0 = std::min(region.z0 + w, region.z1);
  const int zm1 = std::max(zm0, region.z1 - w);
  const int ym0 = std::min(region.y0 + w, region.y1);
  const int ym1 = std::max(ym0, region.y1 - w);
  const int xm0 = std::min(region.x0 + w, region.x1);
  const int xm1 = std::max(xm0, region.x1 - w);
  const Box3 candidates[6] = {
      {region.x0, region.y0, region.z0, region.x1, region.y1, zm0},
      {region.x0, region.y0, zm1, region.x1, region.y1, region.z1},
      {region.x0, region.y0, zm0, region.x1, ym0, zm1},
      {region.x0, ym1, zm0, region.x1, region.y1, zm1},
      {region.x0, ym0, zm0, xm0, ym1, zm1},
      {xm1, ym0, zm0, region.x1, ym1, zm1},
  };
  for (const Box3& b : candidates)
    if (!b.empty()) out.boxes[out.count++] = b;
  return out;
}

inline Box3 interior_box3(const Box3& region, int w) {
  const int zm0 = std::min(region.z0 + w, region.z1);
  const int zm1 = std::max(zm0, region.z1 - w);
  const int ym0 = std::min(region.y0 + w, region.y1);
  const int ym1 = std::max(ym0, region.y1 - w);
  const int xm0 = std::min(region.x0 + w, region.x1);
  const int xm1 = std::max(xm0, region.x1 - w);
  const Box3 inner{xm0, ym0, zm0, xm1, ym1, zm1};
  return inner.empty() ? Box3{} : inner;
}

}  // namespace subsonic
