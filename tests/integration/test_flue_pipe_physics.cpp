// Physics of the flue-pipe application (paper section 2): a jet enters
// through the flue, crosses the mouth, and impinges the labium.  Full
// edge-tone oscillation takes tens of thousands of steps (the paper ran
// 70,000); these tests check the fast precursors — jet penetration, shear
// -layer vorticity, transverse deflection at the labium — that every run
// exhibits within about a thousand steps.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/subsonic.hpp"
#include "src/solver/probe.hpp"

namespace subsonic {
namespace {

struct JetRun {
  Geometry2D geo;
  SerialDriver<2> sim;
  JetRun(Extents2 e, int steps)
      : geo(build_flue_pipe(e, FluePipeVariant::kBasic, 3, 0.10)),
        sim(geo.mask, params(geo), Method::kLatticeBoltzmann) {
    sim.run(steps);
  }
  static FluidParams params(const Geometry2D& g) {
    FluidParams p;
    p.dt = 1.0;
    p.nu = 0.008;
    p.filter_eps = 0.1;
    p.inlet_vx = g.inlet_speed;
    return p;
  }
};

TEST(FluePipePhysics, JetPenetratesIntoTheMouth) {
  JetRun run(Extents2{160, 100}, 900);
  const Domain2D& d = run.sim.domain();
  const int jet_y = (run.geo.jet_y0 + run.geo.jet_y1) / 2;
  // Streamwise velocity along the jet axis stays a substantial fraction
  // of the inlet speed well into the mouth (x ~ 0.18 W).
  // (The jet is only ~4 nodes wide at this scale, so it diffuses fast:
  // Re ~ 50.  A fifth of the inlet speed at 0.18 W is a clear jet.)
  const double u_mouth = d.vx()(int(0.18 * 160), jet_y);
  EXPECT_GT(u_mouth, 0.2 * run.geo.inlet_speed);
  // Closer to the flue it is still strong...
  EXPECT_GT(d.vx()(int(0.10 * 160), jet_y), 0.5 * run.geo.inlet_speed);
  // ...and the flow is quiescent far above the jet.
  EXPECT_LT(std::abs(d.vx()(int(0.18 * 160), 92)),
            0.2 * run.geo.inlet_speed);
}

TEST(FluePipePhysics, ShearLayersCarryOppositeVorticity) {
  JetRun run(Extents2{160, 100}, 900);
  const auto w = vorticity2d(run.sim.domain());
  const int jet_y = (run.geo.jet_y0 + run.geo.jet_y1) / 2;
  const int x = int(0.12 * 160);
  // For a jet along +x, vx peaks on the axis, so dvx/dy < 0 above it and
  // > 0 below; with w = dvy/dx - dvx/dy the upper shear layer carries
  // positive vorticity and the lower one negative.
  double top = 0, bottom = 0;
  for (int dy = 1; dy <= 5; ++dy) {
    top += w(x, jet_y + 2 + dy);
    bottom += w(x, jet_y - 2 - dy);
  }
  EXPECT_GT(top, 0.0);
  EXPECT_LT(bottom, 0.0);
}

TEST(FluePipePhysics, LabiumDeflectsTheJetTransversely) {
  JetRun run(Extents2{160, 100}, 1200);
  const Domain2D& d = run.sim.domain();
  const int jet_y = (run.geo.jet_y0 + run.geo.jet_y1) / 2;
  // Just upstream of the edge the flow acquires a transverse component —
  // the seed of the oscillation.
  double vmax = 0;
  for (int x = int(0.20 * 160); x < int(0.25 * 160); ++x)
    vmax = std::max(vmax, std::abs(d.vy()(x, jet_y)));
  EXPECT_GT(vmax, 0.03 * run.geo.inlet_speed);
}

TEST(FluePipePhysics, DensityStaysNearUnityAtLowMach) {
  // Subsonic: Ma = 0.1 / 0.577 = 0.17, so density variations remain a few
  // percent (acoustic amplitude), never shocks.
  JetRun run(Extents2{160, 100}, 1200);
  const Domain2D& d = run.sim.domain();
  double lo = 10, hi = 0;
  for (int y = 0; y < 100; ++y)
    for (int x = 0; x < 160; ++x) {
      lo = std::min(lo, d.rho()(x, y));
      hi = std::max(hi, d.rho()(x, y));
    }
  EXPECT_GT(lo, 0.9);
  EXPECT_LT(hi, 1.1);
}

TEST(FluePipePhysics, FilterPreventsTheHighReynoldsInstability) {
  // Section 6's central claim: "fast flow and the interaction between
  // acoustic waves and hydrodynamic flow can lead to slow-growing
  // numerical instabilities.  The filter prevents the instabilities."
  // At jet speed 0.25 and nu = 0.002 (Re ~ 500) the unfiltered run blows
  // up within ~1500 steps; the filtered run stays bounded.
  auto run_with = [](double eps) {
    const Geometry2D g = build_flue_pipe(Extents2{160, 100},
                                         FluePipeVariant::kBasic, 3, 0.25);
    FluidParams p;
    p.dt = 1.0;
    p.nu = 0.002;
    p.filter_eps = eps;
    p.inlet_vx = g.inlet_speed;
    SerialDriver<2> sim(g.mask, p, Method::kLatticeBoltzmann);
    double worst = 0;
    for (int s = 0; s < 2000; s += 100) {
      sim.run(100);
      const double m = max_abs(sim.domain().vx());
      if (!std::isfinite(m)) return 1e30;
      worst = std::max(worst, m);
      if (worst > 10.0) break;  // already diverged
    }
    return worst;
  };
  EXPECT_GT(run_with(0.0), 10.0);   // unfiltered: diverges
  EXPECT_LT(run_with(0.1), 1.0);    // filtered: bounded by ~4x jet speed
}

TEST(FluePipePhysics, FiniteDifferencesRunTheJetStably) {
  // Section 7 uses both methods on the same problems; the FD solver must
  // hold the filtered jet bounded just like LB.
  const Geometry2D geo =
      build_flue_pipe(Extents2{160, 100}, FluePipeVariant::kBasic, 3, 0.10);
  FluidParams p;
  p.dt = 0.3;
  p.nu = 0.01;
  p.filter_eps = 0.1;
  p.inlet_vx = geo.inlet_speed;
  SerialDriver<2> sim(geo.mask, p, Method::kFiniteDifference);
  sim.run(4000);
  EXPECT_LT(max_abs(sim.domain().vx()), 3.0 * geo.inlet_speed);
  // The jet exists.
  const int jet_y = (geo.jet_y0 + geo.jet_y1) / 2;
  EXPECT_GT(sim.domain().vx()(16, jet_y), 0.3 * geo.inlet_speed);
}

TEST(FluePipePhysics, ProbeSeesGrowingActivityAtTheLabium) {
  const Geometry2D geo =
      build_flue_pipe(Extents2{160, 100}, FluePipeVariant::kBasic, 3, 0.10);
  SerialDriver<2> sim(geo.mask, JetRun::params(geo),
                      Method::kLatticeBoltzmann);
  Probe probe;
  const int px = int(0.24 * 160);
  const int py = (geo.jet_y0 + geo.jet_y1) / 2;
  for (int s = 0; s < 1200; ++s) {
    sim.run(1);
    probe.record(sim.domain().vy()(px, py));
  }
  // Early window quiet, late window active.
  Probe early, late;
  for (size_t i = 0; i < 200; ++i) early.record(probe.samples()[i]);
  for (size_t i = 1000; i < 1200; ++i) late.record(probe.samples()[i]);
  EXPECT_GT(std::abs(late.mean()) + late.amplitude(),
            std::abs(early.mean()) + early.amplitude());
}

}  // namespace
}  // namespace subsonic
