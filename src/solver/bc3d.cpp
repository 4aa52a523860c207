#include "src/solver/bc3d.hpp"

#include "src/solver/lbm3d.hpp"

namespace subsonic {

void apply_bc3d(Domain3D& d) {
  const FluidParams& p = d.params();
  const bool lb = d.method() == Method::kLatticeBoltzmann;
  const int g = d.ghost();

  for (int z = -g; z < d.nz() + g; ++z) {
    for (int y = -g; y < d.ny() + g; ++y) {
      for (const MaskSpan& s : d.nonfluid_spans().row(y, z)) {
        for (int x = s.x0; x < s.x1; ++x) {
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
}

}  // namespace subsonic
