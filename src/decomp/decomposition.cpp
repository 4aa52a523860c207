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

template <int Dim>
Decomposition<Dim>::Decomposition(Extents global, const GridShape& grid)
    : global_(global) {
  const int j[3] = {grid.jx, grid.jy, grid.jz};
  SUBSONIC_REQUIRE_MSG(Dim == 3 || grid.jz == 1,
                       "2D decomposition requires jz == 1");
  const auto n = global.sizes();
  for (int a = 0; a < Dim; ++a) {
    j_[a] = j[a];
    SUBSONIC_REQUIRE(j[a] >= 1);
    SUBSONIC_REQUIRE_MSG(n[a] >= j[a],
                         "more subregions than grid nodes along an axis");
  }
}

template <int Dim>
typename Decomposition<Dim>::Coords Decomposition<Dim>::coords(
    int rank) const {
  Coords c{};
  for (int a = 0; a < Dim - 1; ++a) {
    c[a] = rank % j_[a];
    rank /= j_[a];
  }
  c[Dim - 1] = rank;
  return c;
}

template <int Dim>
int Decomposition<Dim>::rank_at(const Coords& c) const {
  int rank = 0;
  for (int a = Dim - 1; a >= 0; --a) rank = rank * j_[a] + c[a];
  return rank;
}

template <int Dim>
typename Decomposition<Dim>::Box Decomposition<Dim>::box_at(
    const Coords& c) const {
  const auto n = global_.sizes();
  Coords lo{}, hi{};
  for (int a = 0; a < Dim; ++a) {
    SUBSONIC_REQUIRE(c[a] >= 0 && c[a] < j_[a]);
    lo[a] = even_split_start(n[a], j_[a], c[a]);
    hi[a] = even_split_start(n[a], j_[a], c[a] + 1);
  }
  return box_from(lo, hi);
}

template <int Dim>
int Decomposition<Dim>::owner_at(const Coords& node) const {
  const auto n = global_.sizes();
  Coords c{};
  for (int a = 0; a < Dim; ++a) {
    SUBSONIC_REQUIRE(node[a] >= 0 && node[a] < n[a]);
    // Invert even_split_start by scanning; the counts are tiny (<= dozens).
    while (even_split_start(n[a], j_[a], c[a] + 1) <= node[a]) ++c[a];
  }
  return rank_at(c);
}

template <int Dim>
std::vector<NeighborLink> Decomposition<Dim>::neighbors(
    int rank, StencilShape shape) const {
  SUBSONIC_REQUIRE(rank >= 0 && rank < rank_count());
  constexpr int kDirs = Dim == 2 ? 9 : 27;
  const Coords c = coords(rank);
  std::vector<NeighborLink> out;
  // Digit a of dir in base 3 is offset a + 1, so ascending dir runs dz
  // outer, then dy, then dx; the middle dir is the zero offset.
  for (int dir = 0; dir < kDirs; ++dir) {
    if (dir == kDirs / 2) continue;
    int d[3] = {0, 0, 0};
    Coords nc{};
    int reach = 0;
    bool on_grid = true;
    for (int a = 0, digits = dir; a < Dim; ++a, digits /= 3) {
      d[a] = digits % 3 - 1;
      reach += std::abs(d[a]);
      nc[a] = c[a] + d[a];
      on_grid = on_grid && nc[a] >= 0 && nc[a] < j_[a];
    }
    if (shape == StencilShape::kStar && reach != 1) continue;
    if (on_grid) out.push_back(NeighborLink{rank_at(nc), d[0], d[1], d[2]});
  }
  return out;
}

template <int Dim>
std::int64_t Decomposition<Dim>::comm_node_count(int rank,
                                                 StencilShape shape,
                                                 int g) const {
  SUBSONIC_REQUIRE(g >= 1);
  const Box b = box(rank);
  const auto lo = b.lo(), hi = b.hi();
  std::int64_t total = 0;
  for (const NeighborLink& n : neighbors(rank, shape)) {
    // The strip of our interior that the neighbour needs: g layers deep
    // along each offset axis, full width along unconstrained axes.
    const int d[3] = {n.dx, n.dy, n.dz};
    std::int64_t nodes = 1;
    for (int a = 0; a < Dim; ++a) {
      const int w = hi[a] - lo[a];
      nodes *= d[a] == 0 ? w : std::min(g, w);
    }
    total += nodes;
  }
  return total;
}

template <int Dim>
int Decomposition<Dim>::paper_m() const {
  // Fits the paper's 2D table {Px1: 2, 2x2: 2, 3x3: 3, 4x4: 4, 5x4: 4}:
  // m = max(2, min(jx, jy, 4)).  3D extends the rule with a cap of 6; the
  // paper only exercises (Px1x1) pipelines, where m = 2 (each subregion
  // talks to left and right only).
  int m = Dim == 2 ? 4 : 6;
  for (int c : j_) m = std::min(m, c);
  return std::max(2, m);
}

template <int Dim>
int Decomposition<Dim>::max_comm_edges() const requires(Dim == 2) {
  const int ex = (jx() >= 3) ? 2 : jx() - 1;
  const int ey = (jy() >= 3) ? 2 : jy() - 1;
  return ex + ey;
}

template <int Dim>
double Decomposition<Dim>::mean_comm_edges() const requires(Dim == 2) {
  // Each of the jx(jy-1) + jy(jx-1) interior faces contributes one
  // communicating edge to each of its two subregions.
  const double faces = static_cast<double>(jx()) * (jy() - 1) +
                       static_cast<double>(jy()) * (jx() - 1);
  return 2.0 * faces / rank_count();
}

template <int Dim>
int Decomposition<Dim>::max_unsync(StencilShape shape) const {
  // Appendix A: with a full stencil neighbours couple diagonally and the
  // worst-case step difference is max(J,K[,L]) - 1 (eq. 22); with a star
  // stencil information travels only axis-by-axis and the bound is
  // (J-1) + (K-1) [+ (L-1)] (eq. 23).
  int worst = 0, sum = 0;
  for (int c : j_) {
    worst = std::max(worst, c - 1);
    sum += c - 1;
  }
  return shape == StencilShape::kFull ? worst : sum;
}

template class Decomposition<2>;
template class Decomposition<3>;

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

/// True when `b` grown by one node (clipped, or wrapped on a periodic
/// axis) holds a node of `m` that is not wall: each combination k of the
/// axes' grown ranges is one box to test.
template <int Dim>
bool borders_non_wall(const Mask<Dim>& m, const typename Mask<Dim>::Box& b,
                      const Periodicity& p) {
  const auto lo = b.lo(), hi = b.hi(), n = m.extents().sizes();
  std::array<std::vector<std::array<int, 2>>, Dim> ranges;
  int combos = 1;
  for (int a = 0; a < Dim; ++a) {
    ranges[a] = grown_ranges(lo[a], hi[a], n[a], p[a]);
    combos *= static_cast<int>(ranges[a].size());
  }
  for (int k = 0; k < combos; ++k) {
    std::array<int, Dim> r0{}, r1{};
    for (int a = 0, rest = k; a < Dim; ++a) {
      const int count = static_cast<int>(ranges[a].size());
      r0[a] = ranges[a][rest % count][0];
      r1[a] = ranges[a][rest % count][1];
      rest /= count;
    }
    if (!m.all_solid(box_from(r0, r1))) return true;
  }
  return false;
}

}  // namespace

template <int Dim>
std::vector<int> active_ranks(const Decomposition<Dim>& d,
                              const Mask<Dim>& mask,
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
