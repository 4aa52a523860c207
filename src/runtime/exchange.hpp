// Ghost exchange, written once for both dimensions (the paper's
// "communicate boundary with the neighbouring subregions", sections
// 3-4.2).  For every neighbour link a plan records which slab of this
// rank's interior must be sent (it lands in the neighbour's padding) and
// which slab of this rank's padding is filled by the neighbour's interior.
// Periodic axes wrap; links to inactive subregions are dropped.  The
// pack, unpack and copy routines move those slabs row by row.
#pragma once

#include <vector>

#include "src/decomp/decomposition.hpp"
#include "src/solver/domain.hpp"

namespace subsonic {

template <int Dim>
struct LinkPlan {
  using Box = typename GridTypes<Dim>::Box;
  int peer = -1;     ///< neighbour rank
  int dir = 0;       ///< offset d toward the peer: sum of (d[a] + 1) * 3^a
  int peer_dir = 0;  ///< the same link as seen from the peer
  Box send_box;      ///< local coords: interior slab we send
  Box recv_box;      ///< local coords: padding slab we receive
};

using LinkPlan2D = LinkPlan<2>;
using LinkPlan3D = LinkPlan<3>;

/// The periodic axes of a run.
inline Periodicity periodic_axes(const FluidParams& p) {
  return {p.periodic_x, p.periodic_y, p.periodic_z};
}

/// Builds the link plans for `rank`, in ascending `dir` order (z outer,
/// then y, then x), wrapping the axes `p` marks periodic.  `active[r]`
/// marks ranks that need a process; pass an empty vector to treat all as
/// active.  Always uses the full stencil (corner blocks are required by
/// the filter and by the diagonal LB populations).
template <int Dim>
std::vector<LinkPlan<Dim>> make_link_plans(
    const Decomposition<Dim>& d, int rank, int ghost, const FluidParams& p,
    const std::vector<bool>& active);

/// Packs `fields` of `dom` over `box` (local coords) into caller storage,
/// field-major, then rows (z outer, then y; x inner).  Writes
/// box.count() * fields.size() doubles at `out` and returns the end of what
/// it wrote.  Instantiated for (Domain<2>, Box2) and (Domain<3>, Box3).
template <typename Domain, typename Box>
double* pack_into(const Domain& dom, const std::vector<FieldId>& fields,
                  Box box, double* out);

/// Unpacks what pack_into wrote into `box` of `dom`: reads
/// box.count() * fields.size() doubles at `in` and returns the end of what
/// it read.
template <typename Domain, typename Box>
const double* unpack_from(Domain& dom, const std::vector<FieldId>& fields,
                          Box box, const double* in);

/// Copies `fields` over `src_box` of `src` into the equally shaped
/// `dst_box` of `dst` — pack_into then unpack_from without the payload.
/// `src` and `dst` may be one domain if the boxes are disjoint.
template <typename Domain, typename Box>
void copy_box(const Domain& src, Box src_box, Domain& dst, Box dst_box,
              const std::vector<FieldId>& fields);

/// copy_box for one field: `src_box` of `src` into the equally shaped
/// `dst_box` of `dst`, row by row.  `src` and `dst` may be one field if
/// the boxes are disjoint (the serial periodic wrap, the gather).
template <typename Field, typename Box>
void copy_field_box(const Field& src, Box src_box, Field& dst, Box dst_box);

}  // namespace subsonic
