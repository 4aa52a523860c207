// Ghost-exchange plans (the paper's "communicate boundary with the
// neighbouring subregions", sections 3-4.2).  For every neighbour link the
// plan records which slab of this rank's interior must be sent (it lands
// in the neighbour's padding) and which slab of this rank's padding is
// filled by the neighbour's interior.  Periodic axes wrap; links to
// inactive (all-solid) subregions are dropped.
#pragma once

#include <vector>

#include "src/decomp/decomposition.hpp"
#include "src/solver/domain2d.hpp"

namespace subsonic {

struct LinkPlan2D {
  int peer = -1;      ///< neighbour rank
  int dir = 0;        ///< direction index of this link, (dy+1)*3 + (dx+1)
  int peer_dir = 0;   ///< the same link as seen from the peer
  Box2 send_box;      ///< local coords: interior slab we send
  Box2 recv_box;      ///< local coords: padding slab we receive
};

/// Builds the link plans for `rank`.  `active[r]` marks ranks that own at
/// least one non-solid node; pass an empty vector to treat all as active.
/// Always uses the full stencil (corner blocks are required by the filter
/// and by the diagonal LB populations).
std::vector<LinkPlan2D> make_link_plans2d(const Decomposition2D& d, int rank,
                                          int ghost, bool periodic_x,
                                          bool periodic_y,
                                          const std::vector<bool>& active);

/// Packs `fields` of `dom` over `box` (local coords) into a flat payload,
/// field-major, then row-major (y outer, x inner).
std::vector<double> pack2d(const Domain2D& dom,
                           const std::vector<FieldId>& fields, Box2 box);

/// Unpacks a payload produced by pack2d into `box` of `dom`.
void unpack2d(Domain2D& dom, const std::vector<FieldId>& fields, Box2 box,
              const std::vector<double>& payload);

/// pack2d into caller storage: writes box.count() * fields.size() doubles
/// at `out` and returns the end of what it wrote.
double* pack2d_into(const Domain2D& dom, const std::vector<FieldId>& fields,
                    Box2 box, double* out);

/// unpack2d from caller storage: reads box.count() * fields.size() doubles
/// at `in` and returns the end of what it read.
const double* unpack2d_from(Domain2D& dom, const std::vector<FieldId>& fields,
                            Box2 box, const double* in);

/// Copies `fields` over `src_box` of `src` into the equally shaped
/// `dst_box` of `dst` — pack2d then unpack2d without the payload.  `src`
/// and `dst` may be one domain if the boxes are disjoint.
void copy2d(const Domain2D& src, Box2 src_box, Domain2D& dst, Box2 dst_box,
            const std::vector<FieldId>& fields);

}  // namespace subsonic
