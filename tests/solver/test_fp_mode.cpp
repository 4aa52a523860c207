// The kernels' floating-point mode comes from the compute path itself:
// Domain::for_rows takes FlushSubnormals on the thread that runs each
// chunk — the caller and every pool worker — so a kernel flushes
// subnormals whatever thread, process or launcher runs it, and the
// caller's MXCSR is back as it was when for_rows returns.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/solver/domain.hpp"
#include "src/util/fp_env.hpp"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace subsonic {
namespace {

#if defined(__x86_64__)

FluidParams fd_params() {
  FluidParams p;
  p.dt = 0.3;
  return p;
}

TEST(ForRowsFpMode, EveryRowOnEveryWorkerRunsFlushed2D) {
  const Mask2D mask(Extents2{16, 40}, 1);
  const Domain2D d(mask, full_box(mask.extents()), fd_params(),
                   Method::kFiniteDifference, 1, /*threads=*/3);
  ASSERT_EQ(d.threads(), 3);
  const unsigned before = _mm_getcsr();
  std::vector<unsigned> seen(40, 0);
  d.for_rows(0, 40, 0, 1, [&](int y, int) { seen[y] = _mm_getcsr(); });
  for (int y = 0; y < 40; ++y)
    EXPECT_EQ(seen[y] & kFlushSubnormalBits, kFlushSubnormalBits)
        << "row " << y;
  EXPECT_EQ(_mm_getcsr(), before);
}

TEST(ForRowsFpMode, EveryPencilOnEveryWorkerRunsFlushed3D) {
  const Mask3D mask(Extents3{8, 6, 5}, 1);
  const Domain3D d(mask, full_box(mask.extents()), fd_params(),
                   Method::kFiniteDifference, 1, /*threads=*/3);
  ASSERT_EQ(d.threads(), 3);
  const unsigned before = _mm_getcsr();
  std::atomic<int> unflushed{0}, visited{0};
  d.for_rows(0, 6, 0, 5, [&](int, int) {
    ++visited;
    if ((_mm_getcsr() & kFlushSubnormalBits) != kFlushSubnormalBits)
      ++unflushed;
  });
  EXPECT_EQ(visited.load(), 30);
  EXPECT_EQ(unflushed.load(), 0);
  EXPECT_EQ(_mm_getcsr(), before);
}

TEST(ForRowsFpMode, SingleThreadedDomainRunsFlushedToo) {
  const Mask2D mask(Extents2{8, 8}, 1);
  const Domain2D d(mask, full_box(mask.extents()), fd_params(),
                   Method::kFiniteDifference, 1, /*threads=*/1);
  const unsigned before = _mm_getcsr();
  unsigned seen = 0;
  d.for_rows(0, 8, 0, 1, [&](int, int) { seen |= _mm_getcsr(); });
  EXPECT_EQ(seen & kFlushSubnormalBits, kFlushSubnormalBits);
  EXPECT_EQ(_mm_getcsr(), before);
}

#endif

}  // namespace
}  // namespace subsonic
