// Umbrella header: the public API of the subsonic library, a
// reproduction of P. A. Skordos, "Parallel simulation of subsonic fluid
// dynamics on a cluster of workstations" (HPDC 1995 / MIT AI Memo 1485).
//
// Layers, bottom to top:
//   grid/      ghost-padded fields and index boxes
//   geometry/  node-type masks and flue-pipe builders
//   decomp/    static uniform decompositions, stencils, un-sync bounds
//   solver/    explicit FD and lattice Boltzmann (D2Q9 / D3Q15), the
//              fourth-order filter, boundary handling, schedules
//   comm/      message transports (in-memory channels, real TCP sockets)
//   runtime/   serial and threaded-parallel drivers, ghost exchange,
//              checkpoint dump files, the supervised process runtime
//   cluster/   discrete-event model of the 25-workstation cluster:
//              shared-bus Ethernet, load averages, monitoring, migration
//   perfmodel/ the paper's analytic efficiency model (eqs. 12-21)
//   telemetry/ metrics registry, per-rank phase tracing (Chrome trace
//              JSON), measured T_calc / T_com next to the model's f
//   io/        PGM / CSV writers, binary checkpoints
//
// Quick start (see examples/quickstart.cpp):
//
//   subsonic::Geometry2D geo = subsonic::build_flue_pipe(
//       {400, 250}, subsonic::FluePipeVariant::kBasic, 3);
//   subsonic::FluidParams params;
//   params.dt = 1.0;
//   params.nu = 0.02;
//   params.filter_eps = 0.1;
//   params.inlet_vx = geo.inlet_speed;
//   subsonic::BlockedDriver<2> sim(geo.mask, params,
//                                  subsonic::Method::kLatticeBoltzmann,
//                                  subsonic::GridShape{5, 4, 1},
//                                  /*block_side=*/0);
//   sim.run(1000);
//   subsonic::write_pgm_symmetric(
//       subsonic::vorticity_of_gathered(sim), "vorticity.pgm");
#pragma once

#include "src/cluster/params.hpp"
#include "src/cluster/simulation.hpp"
#include "src/cluster/workload.hpp"
#include "src/comm/in_memory_transport.hpp"
#include "src/decomp/block_decomposition.hpp"
#include "src/decomp/decomposition.hpp"
#include "src/geometry/flue_pipe.hpp"
#include "src/geometry/mask.hpp"
#include "src/grid/extents.hpp"
#include "src/grid/field_ops.hpp"
#include "src/grid/padded_field.hpp"
#include "src/io/checkpoint.hpp"
#include "src/io/csv.hpp"
#include "src/io/pgm.hpp"
#include "src/perfmodel/efficiency.hpp"
#include "src/runtime/blocked_driver.hpp"
#include "src/runtime/gather.hpp"
#include "src/runtime/rebalancer.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/runtime/supervisor.hpp"
#include "src/solver/poiseuille.hpp"
#include "src/solver/vorticity.hpp"
#include "src/telemetry/summary.hpp"
#include "src/telemetry/telemetry.hpp"

namespace subsonic {

/// Library version.
inline constexpr const char* kVersion = "1.0.0";

/// Centered-difference vorticity of a parallel run's gathered velocity
/// field (convenience for visualization; matches vorticity2d on the
/// serial domain away from subregion seams and walls).
inline PaddedField2D<double> vorticity_of_gathered(
    const BlockedDriver<2>& sim) {
  const auto vx = sim.gather(FieldId::kVx);
  const auto vy = sim.gather(FieldId::kVy);
  const Extents2 e = vx.interior();
  PaddedField2D<double> w(e, 0);
  for (int y = 1; y < e.ny - 1; ++y)
    for (int x = 1; x < e.nx - 1; ++x)
      w(x, y) = 0.5 * (vy(x + 1, y) - vy(x - 1, y)) -
                0.5 * (vx(x, y + 1) - vx(x, y - 1));
  return w;
}

}  // namespace subsonic
