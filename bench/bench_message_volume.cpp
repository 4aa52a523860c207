// Section 6's communication accounting, verified against the *functional*
// runtime (not the model): counts the actual messages and payload doubles
// the threaded driver pushes through the transport per integration step,
// for FD vs LB in 2D and 3D.  The per-neighbour message counts must match
// the paper exactly (FD 2, LB 1); payloads are larger than the paper's
// one-layer accounting because our filter needs depth-3 ghost strips
// (documented in DESIGN.md).
#include <cstdio>
#include <utility>

#include "src/core/subsonic.hpp"

namespace {

/// Messages and payload doubles delivered so far, summed over the ranks'
/// "transport.*_recv" counters in the driver's registry.
template <int Dim>
std::pair<long, long long> delivered(const subsonic::BlockedDriver<Dim>& d) {
  std::pair<long, long long> total{0, 0};
  for (const auto& row : d.telemetry().metrics().counters()) {
    if (row.name == "transport.msgs_recv") total.first += row.value;
    if (row.name == "transport.doubles_recv") total.second += row.value;
  }
  return total;
}

}  // namespace

int main() {
  using namespace subsonic;

  std::printf("Functional-runtime message accounting (per step, whole "
              "decomposition)\n\n");
  std::printf("%-8s %-8s %-10s %-14s %-16s %s\n", "method", "dims",
              "messages", "msgs/nbr-pair", "payload_doubles",
              "paper msgs/nbr");

  const int steps = 10;
  {
    Mask2D mask(Extents2{96, 96}, 3);
    FluidParams p;
    p.filter_eps = 0.2;
    for (Method m : {Method::kFiniteDifference, Method::kLatticeBoltzmann}) {
      p.dt = m == Method::kLatticeBoltzmann ? 1.0 : 0.3;
      BlockedDriver<2> drv(mask, p, m, GridShape{2, 2, 1}, 0);
      const auto base = delivered(drv);
      drv.run(steps);
      const long msgs = (delivered(drv).first - base.first) / steps;
      const long long dbl = (delivered(drv).second - base.second) / steps;
      // (2x2) with full stencil: 4 edge pairs + 2 diagonal pairs, both
      // directions -> 12 links.
      std::printf("%-8s %-8d %-10ld %-14.1f %-16lld %d\n", to_string(m), 2,
                  msgs, double(msgs) / 12.0, dbl, messages_per_step(m));
    }
  }
  {
    Mask3D mask(Extents3{32, 32, 32}, 3);
    FluidParams p;
    p.filter_eps = 0.2;
    for (Method m : {Method::kFiniteDifference, Method::kLatticeBoltzmann}) {
      p.dt = m == Method::kLatticeBoltzmann ? 1.0 : 0.3;
      BlockedDriver<3> drv(mask, p, m, GridShape{2, 2, 2}, 0);
      const auto base = delivered(drv);
      drv.run(steps);
      const long msgs = (delivered(drv).first - base.first) / steps;
      const long long dbl = (delivered(drv).second - base.second) / steps;
      // (2x2x2) full stencil: 12 edge + 12 face... in subregion graph:
      // 12 face-pairs + 12 edge-pairs + 4 corner-pairs = 28 pairs, 56
      // directed links.
      std::printf("%-8s %-8d %-10ld %-14.1f %-16lld %d\n", to_string(m), 3,
                  msgs, double(msgs) / 56.0, dbl, messages_per_step(m));
    }
  }
  std::printf("\npaper per-node payload (one boundary layer): 3 doubles "
              "in 2D for both methods;\n4 (FD) vs 5 (LB) in 3D.  The "
              "cluster model uses the paper's counts; the functional\n"
              "runtime ships depth-3 strips when the filter is on.\n");
  return 0;
}
