#include "src/decomp/decomposition.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/check.hpp"

namespace subsonic {

int even_split_start(int n, int parts, int i) {
  SUBSONIC_REQUIRE(parts > 0 && i >= 0 && i <= parts);
  // First (n % parts) parts get one extra node.
  const int base = n / parts;
  const int extra = n % parts;
  return i * base + std::min(i, extra);
}

// ---------------------------------------------------------------- 2D ----

Decomposition2D::Decomposition2D(Extents2 global, int jx, int jy)
    : global_(global), jx_(jx), jy_(jy) {
  SUBSONIC_REQUIRE(jx >= 1 && jy >= 1);
  SUBSONIC_REQUIRE_MSG(global.nx >= jx && global.ny >= jy,
                       "more subregions than grid nodes along an axis");
}

Decomposition2D::Decomposition2D(Extents2 global, const GridShape& grid)
    : Decomposition2D(global, grid.jx, grid.jy) {
  SUBSONIC_REQUIRE_MSG(grid.jz == 1, "2D decomposition requires jz == 1");
}

Box2 Decomposition2D::box(int i, int j) const {
  SUBSONIC_REQUIRE(i >= 0 && i < jx_ && j >= 0 && j < jy_);
  return Box2{even_split_start(global_.nx, jx_, i),
              even_split_start(global_.ny, jy_, j),
              even_split_start(global_.nx, jx_, i + 1),
              even_split_start(global_.ny, jy_, j + 1)};
}

int Decomposition2D::owner_of(int x, int y) const {
  SUBSONIC_REQUIRE(global_.contains(x, y));
  // Invert even_split_start by scanning; jx/jy are tiny (<= dozens).
  int i = 0, j = 0;
  while (even_split_start(global_.nx, jx_, i + 1) <= x) ++i;
  while (even_split_start(global_.ny, jy_, j + 1) <= y) ++j;
  return rank_of(i, j);
}

std::vector<NeighborLink> Decomposition2D::neighbors(
    int rank, StencilShape shape) const {
  SUBSONIC_REQUIRE(rank >= 0 && rank < rank_count());
  const int ci = coord_x(rank);
  const int cj = coord_y(rank);
  std::vector<NeighborLink> out;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      if (shape == StencilShape::kStar && dx != 0 && dy != 0) continue;
      const int ni = ci + dx;
      const int nj = cj + dy;
      if (ni < 0 || ni >= jx_ || nj < 0 || nj >= jy_) continue;
      out.push_back(NeighborLink{rank_of(ni, nj), dx, dy, 0});
    }
  }
  return out;
}

std::int64_t Decomposition2D::comm_node_count(int rank, StencilShape shape,
                                              int g) const {
  SUBSONIC_REQUIRE(g >= 1);
  const Box2 b = box(rank);
  std::int64_t total = 0;
  for (const NeighborLink& n : neighbors(rank, shape)) {
    // The strip of our interior that the neighbour needs: g layers deep
    // along each offset axis, full width along unconstrained axes.
    const std::int64_t lx = (n.dx == 0) ? b.width() : std::min(g, b.width());
    const std::int64_t ly = (n.dy == 0) ? b.height() : std::min(g, b.height());
    total += lx * ly;
  }
  return total;
}

int Decomposition2D::paper_m() const {
  // Fits the paper's table {Px1: 2, 2x2: 2, 3x3: 3, 4x4: 4, 5x4: 4}:
  // m = max(2, min(jx, jy, 4)).
  return std::max(2, std::min({jx_, jy_, 4}));
}

int Decomposition2D::max_comm_edges() const {
  const int ex = (jx_ >= 3) ? 2 : jx_ - 1;
  const int ey = (jy_ >= 3) ? 2 : jy_ - 1;
  return ex + ey;
}

double Decomposition2D::mean_comm_edges() const {
  // Each of the jx(jy-1) + jy(jx-1) interior faces contributes one
  // communicating edge to each of its two subregions.
  const double faces = static_cast<double>(jx_) * (jy_ - 1) +
                       static_cast<double>(jy_) * (jx_ - 1);
  return 2.0 * faces / rank_count();
}

int Decomposition2D::max_unsync(StencilShape shape) const {
  // Appendix A: with a full stencil neighbours couple diagonally and the
  // worst-case step difference is max(J,K) - 1 (eq. 22); with a star
  // stencil information travels only axis-by-axis and the bound is
  // (J-1) + (K-1) (eq. 23).
  if (shape == StencilShape::kFull) return std::max(jx_, jy_) - 1;
  return (jx_ - 1) + (jy_ - 1);
}

// ---------------------------------------------------------------- 3D ----

Decomposition3D::Decomposition3D(Extents3 global, int jx, int jy, int jz)
    : global_(global), jx_(jx), jy_(jy), jz_(jz) {
  SUBSONIC_REQUIRE(jx >= 1 && jy >= 1 && jz >= 1);
  SUBSONIC_REQUIRE_MSG(
      global.nx >= jx && global.ny >= jy && global.nz >= jz,
      "more subregions than grid nodes along an axis");
}

Box3 Decomposition3D::box(int i, int j, int k) const {
  SUBSONIC_REQUIRE(i >= 0 && i < jx_ && j >= 0 && j < jy_ && k >= 0 &&
                   k < jz_);
  return Box3{even_split_start(global_.nx, jx_, i),
              even_split_start(global_.ny, jy_, j),
              even_split_start(global_.nz, jz_, k),
              even_split_start(global_.nx, jx_, i + 1),
              even_split_start(global_.ny, jy_, j + 1),
              even_split_start(global_.nz, jz_, k + 1)};
}

int Decomposition3D::owner_of(int x, int y, int z) const {
  SUBSONIC_REQUIRE(global_.contains(x, y, z));
  int i = 0, j = 0, k = 0;
  while (even_split_start(global_.nx, jx_, i + 1) <= x) ++i;
  while (even_split_start(global_.ny, jy_, j + 1) <= y) ++j;
  while (even_split_start(global_.nz, jz_, k + 1) <= z) ++k;
  return rank_of(i, j, k);
}

std::vector<NeighborLink> Decomposition3D::neighbors(
    int rank, StencilShape shape) const {
  SUBSONIC_REQUIRE(rank >= 0 && rank < rank_count());
  const int ci = coord_x(rank);
  const int cj = coord_y(rank);
  const int ck = coord_z(rank);
  std::vector<NeighborLink> out;
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        if (shape == StencilShape::kStar &&
            std::abs(dx) + std::abs(dy) + std::abs(dz) != 1)
          continue;
        const int ni = ci + dx;
        const int nj = cj + dy;
        const int nk = ck + dz;
        if (ni < 0 || ni >= jx_ || nj < 0 || nj >= jy_ || nk < 0 ||
            nk >= jz_)
          continue;
        out.push_back(NeighborLink{rank_of(ni, nj, nk), dx, dy, dz});
      }
    }
  }
  return out;
}

std::int64_t Decomposition3D::comm_node_count(int rank, StencilShape shape,
                                              int g) const {
  SUBSONIC_REQUIRE(g >= 1);
  const Box3 b = box(rank);
  std::int64_t total = 0;
  for (const NeighborLink& n : neighbors(rank, shape)) {
    const std::int64_t lx = (n.dx == 0) ? b.width() : std::min(g, b.width());
    const std::int64_t ly = (n.dy == 0) ? b.height() : std::min(g, b.height());
    const std::int64_t lz = (n.dz == 0) ? b.depth() : std::min(g, b.depth());
    total += lx * ly * lz;
  }
  return total;
}

int Decomposition3D::paper_m() const {
  // Same fitting rule extended to 3D; the paper only exercises (Px1x1)
  // pipelines where m = 2 (each subregion talks to left and right only).
  return std::max(2, std::min({jx_, jy_, jz_, 6}));
}

int Decomposition3D::max_unsync(StencilShape shape) const {
  if (shape == StencilShape::kFull) return std::max({jx_, jy_, jz_}) - 1;
  return (jx_ - 1) + (jy_ - 1) + (jz_ - 1);
}

// ------------------------------------------------------------- active ----

namespace {

/// The index ranges that [lo, hi) grown by one node covers on an axis of
/// n nodes: clipped to the grid, plus the node across the wrap when the
/// axis is periodic.
std::vector<std::array<int, 2>> grown_ranges(int lo, int hi, int n,
                                             bool periodic) {
  std::vector<std::array<int, 2>> r{{std::max(lo - 1, 0), std::min(hi + 1, n)}};
  if (periodic && lo == 0) r.push_back({n - 1, n});
  if (periodic && hi == n) r.push_back({0, 1});
  return r;
}

bool borders_non_wall(const Mask2D& m, const Box2& b, const Periodicity& p) {
  const Extents2 e = m.extents();
  for (const auto& [x0, x1] : grown_ranges(b.x0, b.x1, e.nx, p[0]))
    for (const auto& [y0, y1] : grown_ranges(b.y0, b.y1, e.ny, p[1]))
      if (!m.all_solid(Box2{x0, y0, x1, y1})) return true;
  return false;
}

bool borders_non_wall(const Mask3D& m, const Box3& b, const Periodicity& p) {
  const Extents3 e = m.extents();
  for (const auto& [x0, x1] : grown_ranges(b.x0, b.x1, e.nx, p[0]))
    for (const auto& [y0, y1] : grown_ranges(b.y0, b.y1, e.ny, p[1]))
      for (const auto& [z0, z1] : grown_ranges(b.z0, b.z1, e.nz, p[2]))
        if (!m.all_solid(Box3{x0, y0, z0, x1, y1, z1})) return true;
  return false;
}

}  // namespace

template <typename Decomp, typename Mask>
std::vector<int> active_ranks(const Decomp& d, const Mask& mask,
                              const Periodicity& periodic) {
  SUBSONIC_REQUIRE(mask.extents() == d.global());
  std::vector<int> out;
  for (int r = 0; r < d.rank_count(); ++r)
    if (borders_non_wall(mask, d.box(r), periodic)) out.push_back(r);
  return out;
}

template std::vector<int> active_ranks(const Decomposition2D&, const Mask2D&,
                                       const Periodicity&);
template std::vector<int> active_ranks(const Decomposition3D&, const Mask3D&,
                                       const Periodicity&);

}  // namespace subsonic
