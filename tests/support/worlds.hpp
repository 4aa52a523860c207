// Seeded random worlds for the suites that run every driver on walled
// geometry (SeededGeometrySweep) and for the golden table (GoldenBits):
// walls closing every non-periodic axis, random wall boxes, one rank's
// box all wall, and optionally an inlet and an outlet, started from a
// smooth perturbation written in global coordinates so that every
// layout starts from the same state, and the gather of a supervised run.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/domain_traits.hpp"
#include "src/runtime/gather.hpp"
#include "src/util/rng.hpp"

namespace subsonic::test {

/// The equivalence suites' smooth perturbation of the fluid nodes of `d`,
/// whose box in the global grid is `box`.
inline void perturb(Domain2D& d, Box2 box) {
  for (int y = 0; y < d.ny(); ++y)
    for (int x = 0; x < d.nx(); ++x) {
      if (d.node(x, y) != NodeType::kFluid) continue;
      const int gx = box.x0 + x;
      const int gy = box.y0 + y;
      d.rho()(x, y) = 1.0 + 0.02 * std::sin(0.2 * gx) * std::cos(0.3 * gy);
      d.vx()(x, y) = 0.01 * std::sin(0.15 * gy + 0.4);
      d.vy()(x, y) = 0.01 * std::cos(0.25 * gx);
    }
}

inline void perturb(Domain3D& d, Box3 box) {
  for (int z = 0; z < d.nz(); ++z)
    for (int y = 0; y < d.ny(); ++y)
      for (int x = 0; x < d.nx(); ++x) {
        if (d.node(x, y, z) != NodeType::kFluid) continue;
        const int gx = box.x0 + x;
        const int gy = box.y0 + y;
        const int gz = box.z0 + z;
        d.rho()(x, y, z) =
            1.0 + 0.02 * std::sin(0.3 * gx) * std::cos(0.2 * gy + 0.1 * gz);
        d.vx()(x, y, z) = 0.01 * std::sin(0.25 * gy);
        d.vz()(x, y, z) = 0.01 * std::cos(0.2 * gx + 0.3 * gz);
      }
}

template <int Dim>
struct World {
  typename DomainTraits<Dim>::Mask mask;
  FluidParams params;
  Method method = Method::kLatticeBoltzmann;
  GridShape grid;
  int steps = 7;
  bool perturbed = true;
};

/// The fields a supervised run of `w` at block side `side` left in `dir`.
template <int Dim>
auto gather_run(const World<Dim>& w, int side, const std::string& dir) {
  if constexpr (Dim == 2)
    return gather_fields2d_blocked(w.mask, w.params, w.method, w.grid.jx,
                                   w.grid.jy, side, dir);
  else
    return gather_fields3d_blocked(w.mask, w.params, w.method, w.grid.jx,
                                   w.grid.jy, w.grid.jz, side, dir);
}

/// A gather's macro fields, in Domain<Dim>::macro_fields() order.
inline std::vector<const PaddedField2D<double>*> macro_of(
    const GatheredFields2D& g) {
  return {&g.rho, &g.vx, &g.vy};
}

inline std::vector<const PaddedField3D<double>*> macro_of(
    const GatheredFields3D& g) {
  return {&g.rho, &g.vx, &g.vy, &g.vz};
}

/// Uniform in [lo, hi].
inline int draw(Rng& rng, int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(rng.below(span));
}

/// The box with corners `lo` and `hi`, read on the first Dim axes.
template <int Dim>
auto box_of(const std::array<int, 3>& lo, const std::array<int, 3>& hi) {
  if constexpr (Dim == 2)
    return Box2{lo[0], lo[1], hi[0], hi[1]};
  else
    return Box3{lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]};
}

template <int Dim>
World<Dim> draw_world(Rng& rng, Method method, int& side) {
  using Box = typename DomainTraits<Dim>::Box;
  World<Dim> w;
  w.method = method;
  w.params.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  w.params.nu = 0.05;
  w.params.filter_eps = rng.below(2) ? 0.1 : 0.0;
  const int ghost = required_ghost(method, w.params.filter_eps > 0.0);
  side = std::max(ghost, Dim == 2 ? 8 : 6);

  std::array<int, 3> n{1, 1, 1}, j{1, 1, 1};
  for (int a = 0; a < Dim; ++a) {
    n[a] = Dim == 2 ? draw(rng, 24, 48) : draw(rng, 12, 24);
    j[a] = draw(rng, 1, Dim == 2 ? 3 : 2);
  }
  if (j[0] * j[1] * j[2] == 1) j[0] = 2;
  w.grid = GridShape{j[0], j[1], j[2]};
  const int periodic = static_cast<int>(rng.below(Dim + 1)) - 1;  // -1: none
  bool* flags[3] = {&w.params.periodic_x, &w.params.periodic_y,
                    &w.params.periodic_z};
  if (periodic >= 0) *flags[periodic] = true;

  if constexpr (Dim == 2)
    w.mask = Mask2D(Extents2{n[0], n[1]}, ghost);
  else
    w.mask = Mask3D(Extents3{n[0], n[1], n[2]}, ghost);
  for (int a = 0; a < Dim; ++a) {
    if (a == periodic) continue;
    std::array<int, 3> lo{0, 0, 0}, hi = n;
    hi[a] = 1;
    w.mask.fill_box(box_of<Dim>(lo, hi), NodeType::kWall);
    lo[a] = n[a] - 1;
    hi[a] = n[a];
    w.mask.fill_box(box_of<Dim>(lo, hi), NodeType::kWall);
  }
  for (int k = draw(rng, 1, 3); k > 0; --k) {
    std::array<int, 3> lo{0, 0, 0}, hi{1, 1, 1};
    for (int a = 0; a < Dim; ++a) {
      lo[a] = draw(rng, 0, n[a] - 2);
      hi[a] = std::min(n[a], lo[a] + draw(rng, 1, n[a] / 3));
    }
    w.mask.fill_box(box_of<Dim>(lo, hi), NodeType::kWall);
  }

  const auto ranks = DomainTraits<Dim>::make_decomposition(w.mask, w.grid);
  const int count = ranks.rank_count();
  w.mask.fill_box(ranks.box(static_cast<int>(rng.below(count))),
                  NodeType::kWall);
  if (periodic >= 0) {
    // A rank whose coordinate along the periodic axis is 0.
    std::vector<int> at_wrap;
    for (int r = 0; r < count; ++r)
      if (ranks.box(r).lo()[periodic] == 0) at_wrap.push_back(r);
    const Box box = ranks.box(at_wrap[rng.below(at_wrap.size())]);
    w.mask.fill_box(box.grown(1), NodeType::kWall);
  }
  w.steps = 8;
  return w;
}

/// A random world of `Dim` dimensions: walls closing every non-periodic
/// axis, one to three random wall boxes, the subregion of one rank filled
/// with wall exactly (flush against whatever fluid surrounds it), and,
/// when the seed picks a periodic axis, a rank at the low end of that axis
/// walled one node beyond its box, so that it borders fluid only across
/// the wrap.  A world is redrawn until a quarter of its nodes are fluid.
/// `side` receives the smallest block side the world's ghost allows.
template <int Dim>
World<Dim> random_world(Rng& rng, Method method, int& side) {
  for (;;) {
    World<Dim> w = draw_world<Dim>(rng, method, side);
    const auto all = full_box(w.mask.extents());
    if (4 * w.mask.count_box(all, NodeType::kFluid) >= all.count()) return w;
  }
}

/// Opens one inlet patch and one outlet patch, each on its own wall of
/// those closing the non-periodic axes, and blows a small inlet velocity
/// into the domain.  Drawn after the world, so the walls match the seed's
/// wall-only draw.
template <int Dim>
void add_openings(World<Dim>& w, Rng& rng) {
  const bool periodic[3] = {w.params.periodic_x, w.params.periodic_y,
                            w.params.periodic_z};
  const std::array<int, Dim> n = w.mask.extents().sizes();
  std::vector<std::array<int, 2>> walls;  // {axis, 0: low end / 1: high end}
  for (int a = 0; a < Dim; ++a)
    if (!periodic[a]) {
      walls.push_back({a, 0});
      walls.push_back({a, 1});
    }
  const std::size_t in = rng.below(walls.size());
  std::size_t out = rng.below(walls.size() - 1);
  if (out >= in) ++out;
  const auto patch = [&](const std::array<int, 2>& wall) {
    std::array<int, 3> lo{0, 0, 0}, hi{1, 1, 1};
    for (int b = 0; b < Dim; ++b) {
      if (b == wall[0]) {
        lo[b] = wall[1] ? n[b] - 1 : 0;
        hi[b] = lo[b] + 1;
      } else {
        lo[b] = draw(rng, 1, n[b] - 3);
        hi[b] = std::min(n[b] - 1, lo[b] + draw(rng, 2, n[b] / 3));
      }
    }
    return box_of<Dim>(lo, hi);
  };
  w.mask.fill_box(patch(walls[in]), NodeType::kInlet);
  w.mask.fill_box(patch(walls[out]), NodeType::kOutlet);
  double* inlet[3] = {&w.params.inlet_vx, &w.params.inlet_vy,
                      &w.params.inlet_vz};
  *inlet[walls[in][0]] = walls[in][1] ? -0.02 : 0.02;
}

/// The world SeededGeometrySweep draws for `seed`: seeds alternate the
/// dimension (even 2D, odd 3D) and, in pairs, the method; seeds 16 and up
/// also open an inlet and an outlet.  Call with the seed's dimension.
template <int Dim>
World<Dim> seeded_world(int seed, int& side) {
  Rng rng(0x5eed0000u + static_cast<std::uint64_t>(seed));
  const Method method = (seed / 2) % 2 ? Method::kFiniteDifference
                                       : Method::kLatticeBoltzmann;
  World<Dim> w = random_world<Dim>(rng, method, side);
  if (seed >= 16) add_openings(w, rng);
  return w;
}

}  // namespace subsonic::test
