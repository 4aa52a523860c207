// Span kernel of the fourth-order filter, one for both dimensions:
// filter.cpp sets up the rows, these do the per-cell arithmetic.  Bit 0
// of a cell's filter-direction byte is x; bit 1 + j is the row's
// transverse direction j (y in 2D; y, then z, in 3D).
//
// The scalar kernel is the reference.  The AVX2 kernel (compiled in
// lbm_kernels_avx2.cpp) computes every direction's term on all four lanes
// and adds each as blendv(+0.0, term, bit set), in the scalar order: x,
// then the transverse directions.  That is exact for every input.  The
// sum starts at +0.0 and can never become -0.0, so adding +0.0 where the
// scalar loop adds nothing changes no bit, and NaN and +-inf pass through
// unchanged.  (0/1 weights would not be exact: 0 * inf is NaN.)  Only a
// NaN's sign is left open: when two NaNs meet in a commutative add, the
// compiler's operand order picks which one propagates.  The reads the
// scalar loop makes only under a set bit stay inside the padded window:
// filter spans exist only when the ghost width is at least 3, and they
// cover [-1, n + 1) on each axis, so every stencil read lies in
// [-3, n + 3).
#pragma once

#include <cstdint>

#include "src/solver/simd.hpp"

namespace subsonic::filter_kernels {

/// One row of one field.
struct Row {
  const double* c;           ///< the field's row
  const double* t[2][4];     ///< per transverse direction: rows -2, -1, +1, +2
  int transverse;            ///< transverse directions in use: 1 (2D) or 2 (3D)
  const std::uint8_t* dirs;  ///< filter-direction bits of the row
  double* out;               ///< the filtered row
};

/// Filters cells [a, b): out[x] = c[x] - k * corr, where corr sums the
/// fourth difference along every direction whose bit dirs[x] sets.
using Fn = void (*)(const Row&, int a, int b, double k);

void span_scalar(const Row& r, int a, int b, double k);
#if defined(SUBSONIC_HAVE_AVX2)
void span_avx2(const Row& r, int a, int b, double k);
#endif

/// The span kernel for `level` (kAvx2 assumes the CPU supports it —
/// resolve via active_simd()/set_simd, which clamp).
Fn select(SimdLevel level);

}  // namespace subsonic::filter_kernels
