#include "src/util/fp_env.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <stdexcept>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace subsonic {
namespace {

#if defined(__x86_64__)

// Opaque to the optimizer, so the arithmetic below runs at run time under
// whatever MXCSR is current instead of being folded at compile time.
volatile double g_tiny = DBL_MIN;
volatile double g_subnormal = DBL_MIN / 4;

TEST(FlushSubnormals, SetsFtzDazAndRestoresTheCallersMode) {
  const unsigned before = _mm_getcsr();
  ASSERT_NE(before & kFlushSubnormalBits, kFlushSubnormalBits)
      << "the test process must start in the IEEE default mode";
  {
    const FlushSubnormals flush;
    EXPECT_EQ(_mm_getcsr() & kFlushSubnormalBits, kFlushSubnormalBits);
    EXPECT_EQ(_mm_getcsr() & ~kFlushSubnormalBits,
              before & ~kFlushSubnormalBits);  // nothing else moves
  }
  EXPECT_EQ(_mm_getcsr(), before);
}

TEST(FlushSubnormals, FlushesResultsAndOperands) {
  // Outside the guard: gradual underflow, as IEEE 754 specifies.
  EXPECT_EQ(std::fpclassify(g_tiny / 4), FP_SUBNORMAL);
  EXPECT_GT(g_subnormal * 2, 0.0);
  {
    const FlushSubnormals flush;
    EXPECT_EQ(g_tiny / 4, 0.0);       // FTZ: a subnormal result becomes 0
    EXPECT_EQ(g_subnormal * 2, 0.0);  // DAZ: a subnormal operand reads as 0
    EXPECT_EQ(g_tiny * 2, 2 * DBL_MIN);  // normal values are untouched
  }
  EXPECT_EQ(std::fpclassify(g_tiny / 4), FP_SUBNORMAL);
}

TEST(FlushSubnormals, NestedGuardsRestoreTheOuterMode) {
  const unsigned before = _mm_getcsr();
  {
    const FlushSubnormals outer;
    const unsigned flushed = _mm_getcsr();
    {
      const FlushSubnormals inner;
      EXPECT_EQ(_mm_getcsr(), flushed);
    }
    EXPECT_EQ(_mm_getcsr(), flushed);  // restored to the outer mode
  }
  EXPECT_EQ(_mm_getcsr(), before);
}

TEST(FlushSubnormals, RestoresOnUnwind) {
  const unsigned before = _mm_getcsr();
  EXPECT_THROW(
      {
        const FlushSubnormals flush;
        throw std::runtime_error("kernel failed");
      },
      std::runtime_error);
  EXPECT_EQ(_mm_getcsr(), before);
}

#endif

}  // namespace
}  // namespace subsonic
