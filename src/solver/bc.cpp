#include "src/solver/bc.hpp"

#include <array>

#include "src/solver/lattice.hpp"

namespace subsonic {

template <int Dim>
void apply_bc(Domain<Dim>& d) {
  using L = Lattice<Dim>;
  constexpr int kQ = L::kQ;
  const FluidParams& p = d.params();
  const int q = d.q();  // 0 for FD: no populations to pin
  const double jet[3] = {p.inlet_vx, p.inlet_vy, p.inlet_vz};
  std::array<double, Dim> inlet;
  for (int a = 0; a < Dim; ++a) inlet[a] = jet[a];
  double eq_in[kQ];  // the inlet's populations are cell-independent
  for (int i = 0; i < q; ++i)
    eq_in[i] = L::equilibrium(i, p.rho0, inlet);

  d.for_each_pencil(d.ghost(), [&](int y, int z) {
    const auto spans = d.nonfluid_spans().pencil(y, z);
    if (spans.empty()) return;
    const std::uint8_t* type = d.node_row(y, z);
    double* rho = d.rho().pencil(y, z);
    double* v[Dim];
    for (int a = 0; a < Dim; ++a) v[a] = d.v(a).pencil(y, z);
    double* f[kQ];
    for (int i = 0; i < q; ++i) f[i] = d.f(i).pencil(y, z);
    for (const MaskSpan& s : spans) {
      for (int x = s.x0; x < s.x1; ++x) {
        switch (static_cast<NodeType>(type[x])) {
          case NodeType::kFluid:
            break;
          case NodeType::kWall:
            rho[x] = p.rho0;
            for (int a = 0; a < Dim; ++a) v[a][x] = 0.0;
            break;
          case NodeType::kInlet:
            rho[x] = p.rho0;
            for (int a = 0; a < Dim; ++a) v[a][x] = inlet[a];
            for (int i = 0; i < q; ++i) f[i][x] = eq_in[i];
            break;
          case NodeType::kOutlet: {
            // Pressure-release opening: density pinned at rho0 and the
            // populations reset to the equilibrium of the local outflow
            // velocity.  The reset absorbs whatever non-equilibrium
            // structure arrives, which keeps strong outflows stable.
            rho[x] = p.rho0;
            std::array<double, Dim> u;
            for (int a = 0; a < Dim; ++a) u[a] = v[a][x];
            for (int i = 0; i < q; ++i)
              f[i][x] = L::equilibrium(i, p.rho0, u);
            break;
          }
        }
      }
    }
  });
}

template void apply_bc(Domain<2>&);
template void apply_bc(Domain<3>&);

}  // namespace subsonic
