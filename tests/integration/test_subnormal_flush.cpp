// Subnormal flushing on the paper's FD flue pipe (400x250, Figure 1).  The
// explicit stencil spreads a numerical precursor ahead of the acoustic
// front, and its values decay through the subnormal range: with gradual
// underflow the pipe holds no subnormal velocity cell at step 60, over a
// thousand at step 80 and thousands after that, each operand costing a
// microcode assist.  The kernels run with FTZ|DAZ (src/util/fp_env.hpp),
// so no solver output may be subnormal at any thread count, and the
// caller's floating-point mode must come back unchanged.
#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/flue_pipe.hpp"
#include "src/grid/field_ops.hpp"
#include "src/runtime/serial_driver.hpp"
#include "src/util/fp_env.hpp"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace subsonic {
namespace {

constexpr int kSteps = 100;  // about 30 steps past the subnormal onset

Geometry2D fd_pipe() {
  return build_flue_pipe(Extents2{400, 250}, FluePipeVariant::kBasic, 3,
                         0.08);
}

FluidParams fd_pipe_params(const Geometry2D& g) {
  FluidParams p;
  p.dt = 0.3;
  p.nu = 0.02;
  p.filter_eps = 0.1;
  p.inlet_vx = g.inlet_speed;
  return p;
}

long long subnormal_cells(const PaddedField2D<double>& f) {
  long long n = 0;
  for (int y = 0; y < f.ny(); ++y)
    for (int x = 0; x < f.nx(); ++x)
      if (std::fpclassify(f(x, y)) == FP_SUBNORMAL) ++n;
  return n;
}

long long subnormal_cells(const Domain2D& d) {
  return subnormal_cells(d.rho()) + subnormal_cells(d.vx()) +
         subnormal_cells(d.vy());
}

TEST(SubnormalFlush, FdFluePipeHoldsNoSubnormalCellPastTheOnset) {
  const Geometry2D g = fd_pipe();
  SerialDriver<2> sim(g.mask, fd_pipe_params(g), Method::kFiniteDifference,
                      /*threads=*/1);
  sim.run(kSteps);
  EXPECT_EQ(subnormal_cells(sim.domain()), 0);
  EXPECT_TRUE(std::isfinite(max_abs(sim.domain().vx())));
  EXPECT_GT(max_abs(sim.domain().vx()), 0.01);  // the jet is flowing
}

TEST(SubnormalFlush, FdFluePipeBitwiseAcrossThreadCountsPastTheOnset) {
  // Pool workers keep their own MXCSR, so each chunk must take the flush
  // mode itself: a worker running with gradual underflow would both leave
  // subnormals and diverge from the single-threaded run.
  const Geometry2D g = fd_pipe();
  const FluidParams p = fd_pipe_params(g);
  SerialDriver<2> one(g.mask, p, Method::kFiniteDifference, /*threads=*/1);
  SerialDriver<2> three(g.mask, p, Method::kFiniteDifference, /*threads=*/3);
  ASSERT_EQ(three.domain().threads(), 3);
  one.run(kSteps);
  three.run(kSteps);
  for (FieldId id : {FieldId::kRho, FieldId::kVx, FieldId::kVy})
    EXPECT_EQ(max_abs_diff(one.domain().field(id), three.domain().field(id)),
              0.0)
        << "field " << static_cast<int>(id);
  EXPECT_EQ(subnormal_cells(three.domain()), 0);
}

#if defined(__x86_64__)
TEST(SubnormalFlush, SerialRunLeavesTheCallersFpModeUnchanged) {
  // Both a caller in the IEEE default mode and one that already flushes
  // get their MXCSR back exactly.
  const Geometry2D g = fd_pipe();
  const FluidParams p = fd_pipe_params(g);
  SerialDriver<2> sim(g.mask, p, Method::kFiniteDifference, /*threads=*/2);
  const unsigned before = _mm_getcsr();
  sim.run(kSteps / 2);
  EXPECT_EQ(_mm_getcsr(), before);
  {
    const FlushSubnormals caller;
    const unsigned flushing = _mm_getcsr();
    sim.run(kSteps / 2);
    EXPECT_EQ(_mm_getcsr(), flushing);
  }
  EXPECT_EQ(_mm_getcsr(), before);
}
#endif

}  // namespace
}  // namespace subsonic
