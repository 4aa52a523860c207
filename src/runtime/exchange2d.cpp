#include "src/runtime/exchange2d.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace subsonic {

std::vector<LinkPlan2D> make_link_plans2d(const Decomposition2D& d, int rank,
                                          int ghost, bool periodic_x,
                                          bool periodic_y,
                                          const std::vector<bool>& active) {
  SUBSONIC_REQUIRE(ghost >= 1);
  const Box2 mine = d.box(rank);
  const int ci = d.coord_x(rank);
  const int cj = d.coord_y(rank);
  const Extents2 ge = d.global();

  std::vector<LinkPlan2D> plans;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      int ni = ci + dx;
      int nj = cj + dy;
      // Shift of the neighbour's box into this rank's frame when the link
      // wraps around a periodic axis.
      int shift_x = 0, shift_y = 0;
      if (ni < 0) {
        if (!periodic_x) continue;
        ni += d.jx();
        shift_x = -ge.nx;
      } else if (ni >= d.jx()) {
        if (!periodic_x) continue;
        ni -= d.jx();
        shift_x = ge.nx;
      }
      if (nj < 0) {
        if (!periodic_y) continue;
        nj += d.jy();
        shift_y = -ge.ny;
      } else if (nj >= d.jy()) {
        if (!periodic_y) continue;
        nj -= d.jy();
        shift_y = ge.ny;
      }
      const int peer = d.rank_of(ni, nj);
      if (!active.empty() && !active[peer]) continue;

      Box2 peer_box = d.box(peer);
      peer_box = Box2{peer_box.x0 + shift_x, peer_box.y0 + shift_y,
                      peer_box.x1 + shift_x, peer_box.y1 + shift_y};

      // What we send: our interior that lies inside the peer's padding.
      const Box2 send_g = mine.intersect(peer_box.grown(ghost));
      // What we receive: our padding covered by the peer's interior.
      const Box2 recv_g = mine.grown(ghost).intersect(peer_box);
      if (send_g.empty() || recv_g.empty()) continue;
      SUBSONIC_CHECK(send_g.count() == recv_g.count());

      LinkPlan2D plan;
      plan.peer = peer;
      plan.dir = (dy + 1) * 3 + (dx + 1);
      plan.peer_dir = (-dy + 1) * 3 + (-dx + 1);
      plan.send_box = Box2{send_g.x0 - mine.x0, send_g.y0 - mine.y0,
                           send_g.x1 - mine.x0, send_g.y1 - mine.y0};
      plan.recv_box = Box2{recv_g.x0 - mine.x0, recv_g.y0 - mine.y0,
                           recv_g.x1 - mine.x0, recv_g.y1 - mine.y0};
      plans.push_back(plan);
    }
  }
  return plans;
}

std::vector<double> pack2d(const Domain2D& dom,
                           const std::vector<FieldId>& fields, Box2 box) {
  std::vector<double> payload(static_cast<size_t>(box.count()) *
                              fields.size());
  pack2d_into(dom, fields, box, payload.data());
  return payload;
}

void unpack2d(Domain2D& dom, const std::vector<FieldId>& fields, Box2 box,
              const std::vector<double>& payload) {
  SUBSONIC_REQUIRE(payload.size() ==
                   static_cast<size_t>(box.count()) * fields.size());
  unpack2d_from(dom, fields, box, payload.data());
}

double* pack2d_into(const Domain2D& dom, const std::vector<FieldId>& fields,
                    Box2 box, double* out) {
  if (box.empty()) return out;
  const int w = box.width();
  for (FieldId id : fields) {
    const PaddedField2D<double>& u = dom.field(id);
    for (int y = box.y0; y < box.y1; ++y)
      out = std::copy_n(&u(box.x0, y), w, out);
  }
  return out;
}

const double* unpack2d_from(Domain2D& dom, const std::vector<FieldId>& fields,
                            Box2 box, const double* in) {
  if (box.empty()) return in;
  const int w = box.width();
  for (FieldId id : fields) {
    PaddedField2D<double>& u = dom.field(id);
    for (int y = box.y0; y < box.y1; ++y, in += w)
      std::copy_n(in, w, &u(box.x0, y));
  }
  return in;
}

void copy2d(const Domain2D& src, Box2 src_box, Domain2D& dst, Box2 dst_box,
            const std::vector<FieldId>& fields) {
  SUBSONIC_REQUIRE(src_box.width() == dst_box.width() &&
                   src_box.height() == dst_box.height());
  if (src_box.empty()) return;
  const int w = src_box.width();
  for (FieldId id : fields) {
    const PaddedField2D<double>& s = src.field(id);
    PaddedField2D<double>& d = dst.field(id);
    for (int y = 0; y < src_box.height(); ++y)
      std::copy_n(&s(src_box.x0, src_box.y0 + y), w,
                  &d(dst_box.x0, dst_box.y0 + y));
  }
}

}  // namespace subsonic
