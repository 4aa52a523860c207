// 3D ghost-exchange plans; see exchange2d.hpp.  A rank has up to 26
// neighbours (full stencil); direction indices are (dz+1)*9+(dy+1)*3+(dx+1).
#pragma once

#include <vector>

#include "src/decomp/decomposition.hpp"
#include "src/solver/domain3d.hpp"

namespace subsonic {

struct LinkPlan3D {
  int peer = -1;
  int dir = 0;
  int peer_dir = 0;
  Box3 send_box;
  Box3 recv_box;
};

std::vector<LinkPlan3D> make_link_plans3d(const Decomposition3D& d, int rank,
                                          int ghost, bool periodic_x,
                                          bool periodic_y, bool periodic_z,
                                          const std::vector<bool>& active);

std::vector<double> pack3d(const Domain3D& dom,
                           const std::vector<FieldId>& fields, Box3 box);

void unpack3d(Domain3D& dom, const std::vector<FieldId>& fields, Box3 box,
              const std::vector<double>& payload);

/// The caller-storage and direct-copy forms; see pack2d_into,
/// unpack2d_from and copy2d.  Payload order is pack3d's: field-major,
/// then z, y, x.
double* pack3d_into(const Domain3D& dom, const std::vector<FieldId>& fields,
                    Box3 box, double* out);
const double* unpack3d_from(Domain3D& dom, const std::vector<FieldId>& fields,
                            Box3 box, const double* in);
void copy3d(const Domain3D& src, Box3 src_box, Domain3D& dst, Box3 dst_box,
            const std::vector<FieldId>& fields);

}  // namespace subsonic
