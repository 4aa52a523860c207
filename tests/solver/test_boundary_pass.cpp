// The boundary pass walks each domain's nonfluid_spans instead of testing
// every padded node.  These tests pin it, bit for bit, to a per-cell copy
// of the loop it replaced, on masks that put every prescribed node type in
// the interior and in the ghost ring.
#include "src/solver/bc.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "src/solver/lattice.hpp"
#include "src/util/rng.hpp"

namespace subsonic {
namespace {

constexpr int kGhost = 3;

/// The boundary pass as it was before the span table: every padded node,
/// switched on its type.
void per_cell_bc2d(Domain2D& d) {
  const FluidParams& p = d.params();
  const bool lb = d.method() == Method::kLatticeBoltzmann;
  const int g = d.ghost();
  for (int y = -g; y < d.ny() + g; ++y) {
    for (int x = -g; x < d.nx() + g; ++x) {
      switch (d.node(x, y)) {
        case NodeType::kFluid:
          break;
        case NodeType::kWall:
          d.rho()(x, y) = p.rho0;
          d.vx()(x, y) = 0.0;
          d.vy()(x, y) = 0.0;
          break;
        case NodeType::kInlet:
          d.rho()(x, y) = p.rho0;
          d.vx()(x, y) = p.inlet_vx;
          d.vy()(x, y) = p.inlet_vy;
          if (lb)
            for (int i = 0; i < lbm2d::kQ; ++i)
              d.f(i)(x, y) =
                  lbm2d::equilibrium(i, p.rho0, p.inlet_vx, p.inlet_vy);
          break;
        case NodeType::kOutlet:
          d.rho()(x, y) = p.rho0;
          if (lb)
            for (int i = 0; i < lbm2d::kQ; ++i)
              d.f(i)(x, y) = lbm2d::equilibrium(i, p.rho0, d.vx()(x, y),
                                                d.vy()(x, y));
          break;
      }
    }
  }
}

void per_cell_bc3d(Domain3D& d) {
  const FluidParams& p = d.params();
  const bool lb = d.method() == Method::kLatticeBoltzmann;
  const int g = d.ghost();
  for (int z = -g; z < d.nz() + g; ++z) {
    for (int y = -g; y < d.ny() + g; ++y) {
      for (int x = -g; x < d.nx() + g; ++x) {
        switch (d.node(x, y, z)) {
          case NodeType::kFluid:
            break;
          case NodeType::kWall:
            d.rho()(x, y, z) = p.rho0;
            d.vx()(x, y, z) = 0.0;
            d.vy()(x, y, z) = 0.0;
            d.vz()(x, y, z) = 0.0;
            break;
          case NodeType::kInlet:
            d.rho()(x, y, z) = p.rho0;
            d.vx()(x, y, z) = p.inlet_vx;
            d.vy()(x, y, z) = p.inlet_vy;
            d.vz()(x, y, z) = p.inlet_vz;
            if (lb)
              for (int i = 0; i < lbm3d::kQ; ++i)
                d.f(i)(x, y, z) = lbm3d::equilibrium(
                    i, p.rho0, p.inlet_vx, p.inlet_vy, p.inlet_vz);
            break;
          case NodeType::kOutlet:
            d.rho()(x, y, z) = p.rho0;
            if (lb)
              for (int i = 0; i < lbm3d::kQ; ++i)
                d.f(i)(x, y, z) =
                    lbm3d::equilibrium(i, p.rho0, d.vx()(x, y, z),
                                       d.vy()(x, y, z), d.vz()(x, y, z));
            break;
        }
      }
    }
  }
}

/// Mostly fluid, like a real geometry, with every prescribed type present.
NodeType random_type(Rng& rng) {
  const std::uint64_t r = rng.below(10);
  if (r < 6) return NodeType::kFluid;
  if (r < 8) return NodeType::kWall;
  return r < 9 ? NodeType::kInlet : NodeType::kOutlet;
}

FluidParams params_for(Method method, bool periodic) {
  FluidParams p;
  p.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  p.nu = 0.05;
  p.inlet_vx = 0.04;
  p.inlet_vy = -0.01;
  p.inlet_vz = 0.02;
  p.periodic_x = p.periodic_y = p.periodic_z = periodic;
  return p;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Which prescribed types occur in the interior and in the ghost ring.
struct TypeCensus {
  bool interior[4] = {false, false, false, false};
  bool ring[4] = {false, false, false, false};
  void add(NodeType t, bool in_ring) {
    (in_ring ? ring : interior)[static_cast<int>(t)] = true;
  }
  void expect_every_prescribed_type() const {
    for (NodeType t : {NodeType::kWall, NodeType::kInlet, NodeType::kOutlet}) {
      EXPECT_TRUE(interior[static_cast<int>(t)])
          << "no " << to_string(t) << " node in the interior";
      EXPECT_TRUE(ring[static_cast<int>(t)])
          << "no " << to_string(t) << " node in the ghost ring";
    }
  }
};

// --- 2D ------------------------------------------------------------------

void randomize(PaddedField2D<double>& f, Rng& rng, double lo, double hi) {
  const int g = f.ghost();
  for (int y = -g; y < f.ny() + g; ++y)
    for (int x = -g; x < f.nx() + g; ++x) f(x, y) = rng.uniform(lo, hi);
}

void randomize(Domain2D& d, std::uint64_t seed) {
  Rng rng(seed);
  randomize(d.rho(), rng, 0.9, 1.1);
  randomize(d.vx(), rng, -0.05, 0.05);
  randomize(d.vy(), rng, -0.05, 0.05);
  for (int i = 0; i < d.q(); ++i) randomize(d.f(i), rng, 0.0, 0.3);
}

void expect_bitwise(const PaddedField2D<double>& a,
                    const PaddedField2D<double>& b, const std::string& name) {
  const int g = a.ghost();
  for (int y = -g; y < a.ny() + g; ++y)
    for (int x = -g; x < a.nx() + g; ++x)
      ASSERT_TRUE(same_bits(a(x, y), b(x, y)))
          << name << " differs at (" << x << ", " << y << "): " << a(x, y)
          << " vs " << b(x, y);
}

void check_2d(const Mask2D& mask, Box2 box, Method method, bool periodic) {
  const FluidParams p = params_for(method, periodic);
  Domain2D spans(mask, box, p, method, kGhost, /*threads=*/1);
  Domain2D cells(mask, box, p, method, kGhost, /*threads=*/1);

  TypeCensus census;
  for (int y = -kGhost; y < spans.ny() + kGhost; ++y)
    for (int x = -kGhost; x < spans.nx() + kGhost; ++x)
      census.add(spans.node(x, y),
                 x < 0 || y < 0 || x >= spans.nx() || y >= spans.ny());
  census.expect_every_prescribed_type();

  randomize(spans, 42);
  randomize(cells, 42);
  apply_bc(spans);
  per_cell_bc2d(cells);

  expect_bitwise(spans.rho(), cells.rho(), "rho");
  expect_bitwise(spans.vx(), cells.vx(), "vx");
  expect_bitwise(spans.vy(), cells.vy(), "vy");
  for (int i = 0; i < spans.q(); ++i)
    expect_bitwise(spans.f(i), cells.f(i), "f" + std::to_string(i));
}

// --- 3D ------------------------------------------------------------------

void randomize(PaddedField3D<double>& f, Rng& rng, double lo, double hi) {
  const int g = f.ghost();
  for (int z = -g; z < f.nz() + g; ++z)
    for (int y = -g; y < f.ny() + g; ++y)
      for (int x = -g; x < f.nx() + g; ++x) f(x, y, z) = rng.uniform(lo, hi);
}

void randomize(Domain3D& d, std::uint64_t seed) {
  Rng rng(seed);
  randomize(d.rho(), rng, 0.9, 1.1);
  randomize(d.vx(), rng, -0.05, 0.05);
  randomize(d.vy(), rng, -0.05, 0.05);
  randomize(d.vz(), rng, -0.05, 0.05);
  for (int i = 0; i < d.q(); ++i) randomize(d.f(i), rng, 0.0, 0.3);
}

void expect_bitwise(const PaddedField3D<double>& a,
                    const PaddedField3D<double>& b, const std::string& name) {
  const int g = a.ghost();
  for (int z = -g; z < a.nz() + g; ++z)
    for (int y = -g; y < a.ny() + g; ++y)
      for (int x = -g; x < a.nx() + g; ++x)
        ASSERT_TRUE(same_bits(a(x, y, z), b(x, y, z)))
            << name << " differs at (" << x << ", " << y << ", " << z
            << "): " << a(x, y, z) << " vs " << b(x, y, z);
}

void check_3d(const Mask3D& mask, Box3 box, Method method, bool periodic) {
  const FluidParams p = params_for(method, periodic);
  Domain3D spans(mask, box, p, method, kGhost, /*threads=*/1);
  Domain3D cells(mask, box, p, method, kGhost, /*threads=*/1);

  TypeCensus census;
  for (int z = -kGhost; z < spans.nz() + kGhost; ++z)
    for (int y = -kGhost; y < spans.ny() + kGhost; ++y)
      for (int x = -kGhost; x < spans.nx() + kGhost; ++x)
        census.add(spans.node(x, y, z),
                   x < 0 || y < 0 || z < 0 || x >= spans.nx() ||
                       y >= spans.ny() || z >= spans.nz());
  census.expect_every_prescribed_type();

  randomize(spans, 43);
  randomize(cells, 43);
  apply_bc(spans);
  per_cell_bc3d(cells);

  expect_bitwise(spans.rho(), cells.rho(), "rho");
  expect_bitwise(spans.vx(), cells.vx(), "vx");
  expect_bitwise(spans.vy(), cells.vy(), "vy");
  expect_bitwise(spans.vz(), cells.vz(), "vz");
  for (int i = 0; i < spans.q(); ++i)
    expect_bitwise(spans.f(i), cells.f(i), "f" + std::to_string(i));
}

TEST(BoundaryPass, SpansMatchPerCellReference) {
  // Random node types on every mask node, padding included: a
  // non-periodic full-box domain takes its ghost ring from the padding, a
  // periodic one from the wrapped interior, and a sub-box domain from its
  // neighbours' interior nodes.
  Rng rng(2026);
  Mask2D mask2(Extents2{26, 22}, kGhost);
  for (int y = -kGhost; y < 22 + kGhost; ++y)
    for (int x = -kGhost; x < 26 + kGhost; ++x)
      mask2.set(x, y, random_type(rng));
  Mask3D mask3(Extents3{10, 9, 8}, kGhost);
  for (int z = -kGhost; z < 8 + kGhost; ++z)
    for (int y = -kGhost; y < 9 + kGhost; ++y)
      for (int x = -kGhost; x < 10 + kGhost; ++x)
        mask3.set(x, y, z, random_type(rng));

  const Box2 boxes2[] = {full_box(mask2.extents()), Box2{5, 4, 19, 16}};
  const Box3 boxes3[] = {full_box(mask3.extents()),
                         Box3{3, 2, 2, 8, 7, 6}};
  for (Method method :
       {Method::kLatticeBoltzmann, Method::kFiniteDifference}) {
    for (bool periodic : {false, true}) {
      for (int b = 0; b < 2; ++b) {
        SCOPED_TRACE(std::string(method == Method::kLatticeBoltzmann ? "LB"
                                                                     : "FD") +
                     (periodic ? ", periodic" : ", walled") +
                     (b == 0 ? ", full box" : ", sub-box"));
        check_2d(mask2, boxes2[b], method, periodic);
        check_3d(mask3, boxes3[b], method, periodic);
      }
    }
  }
}

}  // namespace
}  // namespace subsonic
