#include "src/runtime/exchange.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace subsonic {

template <int Dim>
std::vector<LinkPlan<Dim>> make_link_plans(
    const typename GridTypes<Dim>::Decomp& d, int rank, int ghost,
    const FluidParams& p, const std::vector<bool>& active) {
  using Box = typename GridTypes<Dim>::Box;
  SUBSONIC_REQUIRE(ghost >= 1);
  constexpr int kDirs = Dim == 2 ? 9 : 27;
  const Periodicity periodic = periodic_axes(p);
  const Box mine = d.box(rank);
  const auto coords = d.coords(rank);
  const auto counts = d.counts();
  const auto n = d.global().sizes();
  std::array<int, Dim> to_local;
  for (int a = 0; a < Dim; ++a) to_local[a] = -mine.lo()[a];

  std::vector<LinkPlan<Dim>> plans;
  // Digit a of dir in base 3 is offset a + 1, so ascending dir runs z
  // outer, then y, then x; the middle dir is the zero offset.
  for (int dir = 0; dir < kDirs; ++dir) {
    if (dir == kDirs / 2) continue;
    std::array<int, Dim> peer_coords;
    // Shift of the neighbour's box into this rank's frame when the link
    // wraps around a periodic axis.
    std::array<int, Dim> shift{};
    bool on_grid = true;
    for (int a = 0, digits = dir; a < Dim && on_grid; ++a, digits /= 3) {
      int c = coords[a] + digits % 3 - 1;
      if (c < 0 || c >= counts[a]) {
        on_grid = periodic[a];
        const int side = c < 0 ? -1 : 1;
        c -= side * counts[a];
        shift[a] = side * n[a];
      }
      peer_coords[a] = c;
    }
    if (!on_grid) continue;
    const int peer = d.rank_at(peer_coords);
    if (!active.empty() && !active[peer]) continue;

    const Box peer_box = d.box(peer).shifted(shift);
    // What we send: our interior that lies inside the peer's padding.
    const Box send_g = mine.intersect(peer_box.grown(ghost));
    // What we receive: our padding covered by the peer's interior.
    const Box recv_g = mine.grown(ghost).intersect(peer_box);
    if (send_g.empty() || recv_g.empty()) continue;
    SUBSONIC_CHECK(send_g.count() == recv_g.count());
    plans.push_back(LinkPlan<Dim>{peer, dir, kDirs - 1 - dir,
                                  send_g.shifted(to_local),
                                  recv_g.shifted(to_local)});
  }
  return plans;
}

template std::vector<LinkPlan<2>> make_link_plans<2>(
    const Decomposition2D&, int, int, const FluidParams&,
    const std::vector<bool>&);
template std::vector<LinkPlan<3>> make_link_plans<3>(
    const Decomposition3D&, int, int, const FluidParams&,
    const std::vector<bool>&);

namespace {

/// Calls row(dy, dz) for every row of `b`, relative to its lower corner,
/// in payload order: z outer, then y.  A 2D box is the one plane dz = 0.
template <typename Fn>
void for_each_row(const Box2& b, Fn&& row) {
  for (int dy = 0; dy < b.height(); ++dy) row(dy, 0);
}
template <typename Fn>
void for_each_row(const Box3& b, Fn&& row) {
  for (int dz = 0; dz < b.depth(); ++dz)
    for (int dy = 0; dy < b.height(); ++dy) row(dy, dz);
}

/// The first node of row (dy, dz) of `b` in `u`.
template <typename Field>
auto* row_start(Field& u, const Box2& b, int dy, int) {
  return &u(b.x0, b.y0 + dy);
}
template <typename Field>
auto* row_start(Field& u, const Box3& b, int dy, int dz) {
  return &u(b.x0, b.y0 + dy, b.z0 + dz);
}

}  // namespace

template <typename Domain, typename Box>
double* pack_into(const Domain& dom, const std::vector<FieldId>& fields,
                  Box box, double* out) {
  if (box.empty()) return out;
  const int w = box.width();
  for (FieldId id : fields) {
    const auto& u = dom.field(id);
    for_each_row(box, [&](int dy, int dz) {
      out = std::copy_n(row_start(u, box, dy, dz), w, out);
    });
  }
  return out;
}

template <typename Domain, typename Box>
const double* unpack_from(Domain& dom, const std::vector<FieldId>& fields,
                          Box box, const double* in) {
  if (box.empty()) return in;
  const int w = box.width();
  for (FieldId id : fields) {
    auto& u = dom.field(id);
    for_each_row(box, [&](int dy, int dz) {
      std::copy_n(in, w, row_start(u, box, dy, dz));
      in += w;
    });
  }
  return in;
}

template <typename Field, typename Box>
void copy_field_box(const Field& src, Box src_box, Field& dst, Box dst_box) {
  // Equal shapes: each box moved by the other's corner is the same box.
  SUBSONIC_REQUIRE(src_box.shifted(dst_box.lo()) ==
                   dst_box.shifted(src_box.lo()));
  if (src_box.empty()) return;
  const int w = src_box.width();
  for_each_row(src_box, [&](int dy, int dz) {
    std::copy_n(row_start(src, src_box, dy, dz), w,
                row_start(dst, dst_box, dy, dz));
  });
}

template <typename Domain, typename Box>
void copy_box(const Domain& src, Box src_box, Domain& dst, Box dst_box,
              const std::vector<FieldId>& fields) {
  for (FieldId id : fields)
    copy_field_box(src.field(id), src_box, dst.field(id), dst_box);
}

template double* pack_into(const Domain2D&, const std::vector<FieldId>&,
                           Box2, double*);
template double* pack_into(const Domain3D&, const std::vector<FieldId>&,
                           Box3, double*);
template const double* unpack_from(Domain2D&, const std::vector<FieldId>&,
                                   Box2, const double*);
template const double* unpack_from(Domain3D&, const std::vector<FieldId>&,
                                   Box3, const double*);
template void copy_box(const Domain2D&, Box2, Domain2D&, Box2,
                       const std::vector<FieldId>&);
template void copy_box(const Domain3D&, Box3, Domain3D&, Box3,
                       const std::vector<FieldId>&);
template void copy_field_box(const PaddedField2D<double>&, Box2,
                             PaddedField2D<double>&, Box2);
template void copy_field_box(const PaddedField3D<double>&, Box3,
                             PaddedField3D<double>&, Box3);

}  // namespace subsonic
