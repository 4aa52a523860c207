// Vorticity (the curl of the velocity), the quantity the paper plots in
// Figures 1-2 as equi-vorticity contours of the flue-pipe jet.
#pragma once

#include "src/solver/domain.hpp"

namespace subsonic {

/// Centered-difference vorticity w = dVy/dx - dVx/dy over the interior.
/// Non-fluid nodes and nodes whose stencil touches the padding edge get 0.
inline PaddedField2D<double> vorticity2d(const Domain2D& d) {
  PaddedField2D<double> w(Extents2{d.nx(), d.ny()}, 0);
  const double inv2dx = 1.0 / (2.0 * d.params().dx);
  for (int y = 0; y < d.ny(); ++y) {
    for (int x = 0; x < d.nx(); ++x) {
      if (d.node(x, y) != NodeType::kFluid) continue;
      w(x, y) = (d.vy()(x + 1, y) - d.vy()(x - 1, y)) * inv2dx -
                (d.vx()(x, y + 1) - d.vx()(x, y - 1)) * inv2dx;
    }
  }
  return w;
}

}  // namespace subsonic
