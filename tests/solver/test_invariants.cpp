// Parameterized invariant sweeps: conservation and stability properties
// that must hold across relaxation times, grid shapes, and methods — the
// property-style counterpart of the single-configuration tests.
#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/solver/lattice.hpp"

namespace subsonic {
namespace {

// gtest has no printer for this struct, so the name ctest registers for
// each case ends in its raw bytes.  The name pointer, whose value moves
// with address-space randomisation, is stored last so that those bytes
// start with fields that are the same in every run.
struct InvariantCase {
  InvariantCase(const char* case_name, Method m, double viscosity, int w,
                int h, double eps)
      : method(m), nu(viscosity), nx(w), ny(h), filter_eps(eps),
        name(case_name) {}
  Method method;
  double nu;
  int nx, ny;
  double filter_eps;
  const char* name;
};

class ConservationSweep : public ::testing::TestWithParam<InvariantCase> {};

double lb_mass(const Domain2D& d) {
  double m = 0;
  for (int y = 0; y < d.ny(); ++y)
    for (int x = 0; x < d.nx(); ++x)
      for (int i = 0; i < lbm2d::kQ; ++i) m += d.f(i)(x, y);
  return m;
}

TEST_P(ConservationSweep, PeriodicMassIsConserved) {
  const InvariantCase& c = GetParam();
  Mask2D mask(Extents2{c.nx, c.ny}, c.filter_eps > 0 ? 3 : 1);
  FluidParams p;
  p.dt = c.method == Method::kLatticeBoltzmann ? 1.0 : 0.25;
  p.nu = c.nu;
  p.filter_eps = c.filter_eps;
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> drv(mask, p, c.method);
  Domain2D& d = drv.domain();
  for (int y = 0; y < c.ny; ++y)
    for (int x = 0; x < c.nx; ++x) {
      d.rho()(x, y) = 1.0 + 0.03 * std::sin(2 * M_PI * x / double(c.nx)) *
                                std::cos(2 * M_PI * y / double(c.ny));
      d.vx()(x, y) = 0.02 * std::sin(2 * M_PI * y / double(c.ny));
      d.vy()(x, y) = 0.015 * std::cos(2 * M_PI * x / double(c.nx));
    }
  drv.reinitialize();
  const double m0 = c.method == Method::kLatticeBoltzmann
                        ? lb_mass(d)
                        : interior_sum(d.rho());
  drv.run(60);
  const double m1 = c.method == Method::kLatticeBoltzmann
                        ? lb_mass(d)
                        : interior_sum(d.rho());
  EXPECT_NEAR(m1 / m0, 1.0, 1e-11) << c.name;
}

TEST_P(ConservationSweep, VelocitiesStayBoundedBySoundSpeed) {
  // Subsonic runs stay subsonic: the perturbations above never approach
  // c_s, across viscosities and aspect ratios.
  const InvariantCase& c = GetParam();
  Mask2D mask(Extents2{c.nx, c.ny}, c.filter_eps > 0 ? 3 : 1);
  FluidParams p;
  p.dt = c.method == Method::kLatticeBoltzmann ? 1.0 : 0.25;
  p.nu = c.nu;
  p.filter_eps = c.filter_eps;
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> drv(mask, p, c.method);
  Domain2D& d = drv.domain();
  for (int y = 0; y < c.ny; ++y)
    for (int x = 0; x < c.nx; ++x)
      d.vx()(x, y) = 0.05 * std::sin(2 * M_PI * (x + y) / double(c.nx));
  drv.reinitialize();
  drv.run(80);
  EXPECT_LT(max_abs(d.vx()), p.cs) << c.name;
  EXPECT_LT(max_abs(d.vy()), p.cs) << c.name;
  // And the kinetic energy decays (viscosity, no forcing).
  double ke = 0;
  for (int y = 0; y < c.ny; ++y)
    for (int x = 0; x < c.nx; ++x)
      ke += d.vx()(x, y) * d.vx()(x, y) + d.vy()(x, y) * d.vy()(x, y);
  EXPECT_LT(ke, 0.05 * 0.05 * c.nx * c.ny) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConservationSweep,
    ::testing::Values(
        InvariantCase{"lb_thin_nu005", Method::kLatticeBoltzmann, 0.05, 48,
                      12, 0.0},
        InvariantCase{"lb_square_nu02", Method::kLatticeBoltzmann, 0.2, 24,
                      24, 0.0},
        InvariantCase{"lb_tall_nu001_filter", Method::kLatticeBoltzmann,
                      0.01, 12, 40, 0.2},
        InvariantCase{"lb_square_nu05_filter", Method::kLatticeBoltzmann,
                      0.5, 20, 20, 0.4},
        InvariantCase{"fd_square_nu005", Method::kFiniteDifference, 0.05,
                      24, 24, 0.0},
        InvariantCase{"fd_wide_nu01_filter", Method::kFiniteDifference, 0.1,
                      40, 16, 0.25},
        InvariantCase{"fd_square_nu002_filter", Method::kFiniteDifference,
                      0.02, 28, 28, 0.1}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

// Relaxation-time sweep: LB must remain stable and mass-conserving for
// tau across the usable range (tau > 0.5).
class TauSweep : public ::testing::TestWithParam<double> {};

TEST_P(TauSweep, StableAndConservative) {
  const double nu = (GetParam() - 0.5) / 3.0;
  Mask2D mask(Extents2{20, 20}, 1);
  FluidParams p;
  p.dt = 1.0;
  p.nu = nu;
  p.periodic_x = p.periodic_y = true;
  EXPECT_NEAR(p.lb_tau(), GetParam(), 1e-12);
  SerialDriver<2> drv(mask, p, Method::kLatticeBoltzmann);
  Domain2D& d = drv.domain();
  for (int y = 0; y < 20; ++y)
    for (int x = 0; x < 20; ++x)
      d.rho()(x, y) = 1.0 + 0.02 * std::cos(2 * M_PI * (x - y) / 20.0);
  drv.reinitialize();
  const double m0 = lb_mass(d);
  drv.run(100);
  EXPECT_NEAR(lb_mass(d) / m0, 1.0, 1e-11);
  EXPECT_TRUE(std::isfinite(max_abs(d.vx())));
  EXPECT_LT(max_abs(d.vx()), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Taus, TauSweep,
                         ::testing::Values(0.52, 0.6, 0.8, 1.0, 1.5, 1.95),
                         [](const auto& param_info) {
                           return "tau" +
                                  std::to_string(int(
                                      param_info.param * 100));
                         });

}  // namespace
}  // namespace subsonic
