// The section-7 speed measurement, performed on *this* machine: fluid
// nodes integrated per second for LB and FD in 2D and 3D, averaged over
// several grid sizes exactly as the paper did (100^2..300^2 in 2D,
// 10^3..44^3 in 3D).  The absolute rates are hardware-dependent; the
// interesting reproducible quantity is the ratio structure (FD faster
// than LB per step; 3D slower per node than 2D).
#include <cstdio>
#include <vector>

#include "src/core/subsonic.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace subsonic;

double rate2d(Method method, int side) {
  Mask2D mask(Extents2{side, side}, 1);
  FluidParams p;
  p.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> drv(mask, p, method);
  drv.run(3);  // warm up
  const int steps = std::max(3, 600000 / (side * side));
  Stopwatch sw;
  drv.run(steps);
  const double elapsed = sw.seconds();
  return double(side) * side * steps / elapsed;
}

double rate3d(Method method, int side) {
  Mask3D mask(Extents3{side, side, side}, 1);
  FluidParams p;
  p.dt = method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  SerialDriver<3> drv(mask, p, method);
  drv.run(2);
  const int steps = std::max(2, 400000 / (side * side * side));
  Stopwatch sw;
  drv.run(steps);
  const double elapsed = sw.seconds();
  return double(side) * side * side * steps / elapsed;
}

double average(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s / double(v.size());
}

}  // namespace

int main() {
  std::printf("Workstation speed table measured on this machine\n");
  std::printf("(paper: 1.0 = 39132 nodes/s on an HP9000/715-50; grids "
              "100^2..300^2 and 10^3..44^3)\n\n");

  std::vector<double> lb2, fd2, lb3, fd3;
  for (int side : {100, 200, 300}) {
    lb2.push_back(rate2d(Method::kLatticeBoltzmann, side));
    fd2.push_back(rate2d(Method::kFiniteDifference, side));
  }
  for (int side : {10, 24, 44}) {
    lb3.push_back(rate3d(Method::kLatticeBoltzmann, side));
    fd3.push_back(rate3d(Method::kFiniteDifference, side));
  }

  const double base = average(lb2);  // our "LB 2D = 1.0" normalization
  std::printf("%-8s %-16s %-10s %s\n", "", "nodes/s", "relative",
              "paper relative (715/50)");
  std::printf("%-8s %-16.0f %-10.2f %s\n", "LB 2D", average(lb2), 1.0,
              "1.00");
  std::printf("%-8s %-16.0f %-10.2f %s\n", "LB 3D", average(lb3),
              average(lb3) / base, "0.51");
  std::printf("%-8s %-16.0f %-10.2f %s\n", "FD 2D", average(fd2),
              average(fd2) / base, "1.24");
  std::printf("%-8s %-16.0f %-10.2f %s\n", "FD 3D", average(fd3),
              average(fd3) / base, "1.00");
  std::printf("\nspeed ratio vs the paper's 715/50: %.0fx\n",
              base / 39132.0);
  std::printf("structure to compare: FD > LB per step in 2D; every method "
              "slower per node in 3D.\n");
  return 0;
}
