#include "src/solver/bc2d.hpp"

#include "src/solver/lbm2d.hpp"

namespace subsonic {

void apply_bc2d(Domain2D& d) {
  const FluidParams& p = d.params();
  const bool lb = d.method() == Method::kLatticeBoltzmann;
  const int g = d.ghost();

  for (int y = -g; y < d.ny() + g; ++y) {
    for (const MaskSpan& s : d.nonfluid_spans().row(y)) {
      for (int x = s.x0; x < s.x1; ++x) {
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
            // Pressure-release opening: density pinned at rho0 and the
            // populations reset to the equilibrium of the local outflow
            // velocity.  The reset absorbs whatever non-equilibrium
            // structure arrives, which keeps strong outflows stable.
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
}

}  // namespace subsonic
