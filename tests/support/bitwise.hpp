// Helpers for the tests that pin a kernel rewrite to the reference bit
// for bit: field values with the IEEE-754 corner cases mixed in,
// padded-window comparisons that tell -0.0 from +0.0, and a scope that
// pins the SIMD dispatch level.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "src/grid/padded_field.hpp"
#include "src/solver/simd.hpp"
#include "src/util/rng.hpp"

namespace subsonic::test {

/// Uniform in [lo, hi), except that about one draw in ten is a corner case
/// a kernel rewrite can mishandle: NaN, +-inf, -0.0, a subnormal, or
/// +-1e308 (whose sums and multiples overflow).
inline double value_or_special(Rng& rng, double lo, double hi) {
  if (rng.below(10) != 0) return rng.uniform(lo, hi);
  using L = std::numeric_limits<double>;
  switch (rng.below(8)) {
    case 0:
      return L::quiet_NaN();
    case 1:
      return L::infinity();
    case 2:
      return -L::infinity();
    case 3:
      return -0.0;
    case 4:
      return L::denorm_min();
    case 5:
      return -0.5 * L::min();
    case 6:
      return 1e308;
    default:
      return -1e308;
  }
}

namespace detail {

/// First column of the `n`-value rows `a` and `b` whose bits differ, or -1.
/// With `any_nan`, a NaN matches any NaN.
inline int first_difference(const double* a, const double* b, int n,
                            bool any_nan) {
  for (int i = 0; i < n; ++i) {
    if (std::memcmp(a + i, b + i, sizeof(double)) == 0) continue;
    if (any_nan && std::isnan(a[i]) && std::isnan(b[i])) continue;
    return i;
  }
  return -1;
}

inline void expect_rows_match(const PaddedField2D<double>& a,
                              const PaddedField2D<double>& b,
                              const char* what, bool any_nan) {
  const int g = a.ghost();
  ASSERT_EQ(g, b.ghost());
  for (int y = -g; y < a.ny() + g; ++y) {
    const int i = first_difference(a.row_begin(y), b.row_begin(y),
                                   a.nx() + 2 * g, any_nan);
    EXPECT_EQ(i, -1) << what << ": first difference at (" << i - g << ", "
                     << y << ")";
  }
}

inline void expect_rows_match(const PaddedField3D<double>& a,
                              const PaddedField3D<double>& b,
                              const char* what, bool any_nan) {
  const int g = a.ghost();
  ASSERT_EQ(g, b.ghost());
  for (int z = -g; z < a.nz() + g; ++z)
    for (int y = -g; y < a.ny() + g; ++y) {
      const int i = first_difference(a.row_begin(y, z), b.row_begin(y, z),
                                     a.nx() + 2 * g, any_nan);
      EXPECT_EQ(i, -1) << what << ": first difference at (" << i - g
                       << ", " << y << ", " << z << ")";
    }
}

}  // namespace detail

/// Every padded-window value of `a` and `b` has the same bits, NaN and
/// -0.0 included.  (PaddedField's == compares doubles: it passes -0.0
/// against +0.0 and fails NaN against NaN.)
template <typename Field>
void expect_same_bits(const Field& a, const Field& b, const char* what) {
  detail::expect_rows_match(a, b, what, /*any_nan=*/false);
}

/// As expect_same_bits, except that a NaN matches any NaN.  C++ leaves a
/// NaN's sign to the compiler: which operand of a commutative add
/// propagates when both are NaN, and whether -1.0 * x is emitted as a
/// negation.  Two compilations of one operation tree (a scalar loop and
/// its vectorised form, or the same loop built for another -march) can
/// differ in those bits and in no other.
template <typename Field>
void expect_same_bits_any_nan(const Field& a, const Field& b,
                              const char* what) {
  detail::expect_rows_match(a, b, what, /*any_nan=*/true);
}

inline bool avx2_available() {
  return simd_avx2_built() && simd_avx2_supported();
}

/// Pins the dispatch level for one scope, restoring auto dispatch after.
class ScopedSimd {
 public:
  explicit ScopedSimd(SimdLevel level) { set_simd(level); }
  ~ScopedSimd() { reset_simd(); }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;
};

}  // namespace subsonic::test
