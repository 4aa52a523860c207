#include "src/runtime/exchange3d.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace subsonic {

std::vector<LinkPlan3D> make_link_plans3d(const Decomposition3D& d, int rank,
                                          int ghost, bool periodic_x,
                                          bool periodic_y, bool periodic_z,
                                          const std::vector<bool>& active) {
  SUBSONIC_REQUIRE(ghost >= 1);
  const Box3 mine = d.box(rank);
  const int ci = d.coord_x(rank);
  const int cj = d.coord_y(rank);
  const int ck = d.coord_z(rank);
  const Extents3 ge = d.global();

  std::vector<LinkPlan3D> plans;
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        int ni = ci + dx, nj = cj + dy, nk = ck + dz;
        int sx = 0, sy = 0, sz = 0;
        if (ni < 0) {
          if (!periodic_x) continue;
          ni += d.jx();
          sx = -ge.nx;
        } else if (ni >= d.jx()) {
          if (!periodic_x) continue;
          ni -= d.jx();
          sx = ge.nx;
        }
        if (nj < 0) {
          if (!periodic_y) continue;
          nj += d.jy();
          sy = -ge.ny;
        } else if (nj >= d.jy()) {
          if (!periodic_y) continue;
          nj -= d.jy();
          sy = ge.ny;
        }
        if (nk < 0) {
          if (!periodic_z) continue;
          nk += d.jz();
          sz = -ge.nz;
        } else if (nk >= d.jz()) {
          if (!periodic_z) continue;
          nk -= d.jz();
          sz = ge.nz;
        }
        const int peer = d.rank_of(ni, nj, nk);
        if (!active.empty() && !active[peer]) continue;

        Box3 peer_box = d.box(peer);
        peer_box = Box3{peer_box.x0 + sx, peer_box.y0 + sy, peer_box.z0 + sz,
                        peer_box.x1 + sx, peer_box.y1 + sy,
                        peer_box.z1 + sz};

        const Box3 send_g = mine.intersect(peer_box.grown(ghost));
        const Box3 recv_g = mine.grown(ghost).intersect(peer_box);
        if (send_g.empty() || recv_g.empty()) continue;
        SUBSONIC_CHECK(send_g.count() == recv_g.count());

        LinkPlan3D plan;
        plan.peer = peer;
        plan.dir = (dz + 1) * 9 + (dy + 1) * 3 + (dx + 1);
        plan.peer_dir = (-dz + 1) * 9 + (-dy + 1) * 3 + (-dx + 1);
        plan.send_box =
            Box3{send_g.x0 - mine.x0, send_g.y0 - mine.y0,
                 send_g.z0 - mine.z0, send_g.x1 - mine.x0,
                 send_g.y1 - mine.y0, send_g.z1 - mine.z0};
        plan.recv_box =
            Box3{recv_g.x0 - mine.x0, recv_g.y0 - mine.y0,
                 recv_g.z0 - mine.z0, recv_g.x1 - mine.x0,
                 recv_g.y1 - mine.y0, recv_g.z1 - mine.z0};
        plans.push_back(plan);
      }
    }
  }
  return plans;
}

std::vector<double> pack3d(const Domain3D& dom,
                           const std::vector<FieldId>& fields, Box3 box) {
  std::vector<double> payload(static_cast<size_t>(box.count()) *
                              fields.size());
  pack3d_into(dom, fields, box, payload.data());
  return payload;
}

void unpack3d(Domain3D& dom, const std::vector<FieldId>& fields, Box3 box,
              const std::vector<double>& payload) {
  SUBSONIC_REQUIRE(payload.size() ==
                   static_cast<size_t>(box.count()) * fields.size());
  unpack3d_from(dom, fields, box, payload.data());
}

double* pack3d_into(const Domain3D& dom, const std::vector<FieldId>& fields,
                    Box3 box, double* out) {
  if (box.empty()) return out;
  const int w = box.width();
  for (FieldId id : fields) {
    const PaddedField3D<double>& u = dom.field(id);
    for (int z = box.z0; z < box.z1; ++z)
      for (int y = box.y0; y < box.y1; ++y)
        out = std::copy_n(&u(box.x0, y, z), w, out);
  }
  return out;
}

const double* unpack3d_from(Domain3D& dom, const std::vector<FieldId>& fields,
                            Box3 box, const double* in) {
  if (box.empty()) return in;
  const int w = box.width();
  for (FieldId id : fields) {
    PaddedField3D<double>& u = dom.field(id);
    for (int z = box.z0; z < box.z1; ++z)
      for (int y = box.y0; y < box.y1; ++y, in += w)
        std::copy_n(in, w, &u(box.x0, y, z));
  }
  return in;
}

void copy3d(const Domain3D& src, Box3 src_box, Domain3D& dst, Box3 dst_box,
            const std::vector<FieldId>& fields) {
  SUBSONIC_REQUIRE(src_box.width() == dst_box.width() &&
                   src_box.height() == dst_box.height() &&
                   src_box.depth() == dst_box.depth());
  if (src_box.empty()) return;
  const int w = src_box.width();
  for (FieldId id : fields) {
    const PaddedField3D<double>& s = src.field(id);
    PaddedField3D<double>& d = dst.field(id);
    for (int z = 0; z < src_box.depth(); ++z)
      for (int y = 0; y < src_box.height(); ++y)
        std::copy_n(&s(src_box.x0, src_box.y0 + y, src_box.z0 + z), w,
                    &d(dst_box.x0, dst_box.y0 + y, dst_box.z0 + z));
  }
}

}  // namespace subsonic
