// Reductions and element-wise helpers over padded fields.  All interior-only
// (ghost values are communication scratch and must not affect norms), and
// each walks the interior pencil by pencil, z outer, then y, then x.
// The max reductions propagate NaN: a blown-up field must never read as
// finite, and a NaN difference must never read as a match.
#pragma once

#include <cmath>

#include "src/grid/padded_field.hpp"

namespace subsonic {

namespace detail {
/// max(worst, v) that keeps a NaN from either side; std::max(worst, v)
/// returns `worst` whenever v is NaN.
template <typename T>
T nan_max(T worst, T v) {
  return std::isnan(worst) || v <= worst ? worst : v;
}
}  // namespace detail

/// max |a - b| over the interior; NaN if any difference is NaN.  Fields
/// must have identical extents.
template <typename T, int Dim>
T max_abs_diff(const PaddedField<T, Dim>& a, const PaddedField<T, Dim>& b) {
  SUBSONIC_REQUIRE(a.interior() == b.interior());
  T worst{};
  for_each_pencil(full_box(a.interior()), [&](int y, int z) {
    const T* pa = a.pencil(y, z);
    const T* pb = b.pencil(y, z);
    for (int x = 0; x < a.nx(); ++x)
      worst = detail::nan_max(worst, static_cast<T>(std::abs(pa[x] - pb[x])));
  });
  return worst;
}

/// max |a| over the interior; NaN if any value is NaN.
template <typename T, int Dim>
T max_abs(const PaddedField<T, Dim>& a) {
  T worst{};
  for_each_pencil(full_box(a.interior()), [&](int y, int z) {
    const T* p = a.pencil(y, z);
    for (int x = 0; x < a.nx(); ++x)
      worst = detail::nan_max(worst, static_cast<T>(std::abs(p[x])));
  });
  return worst;
}

/// Discrete L2 norm over the interior: sqrt(sum a^2 / count).
template <typename T, int Dim>
double l2_norm(const PaddedField<T, Dim>& a) {
  double sum = 0;
  for_each_pencil(full_box(a.interior()), [&](int y, int z) {
    const T* p = a.pencil(y, z);
    for (int x = 0; x < a.nx(); ++x) sum += double(p[x]) * p[x];
  });
  return std::sqrt(sum / double(a.interior().count()));
}

/// Sum over the interior (e.g. total mass of a density field).
template <typename T, int Dim>
double interior_sum(const PaddedField<T, Dim>& a) {
  double sum = 0;
  for_each_pencil(full_box(a.interior()), [&](int y, int z) {
    const T* p = a.pencil(y, z);
    for (int x = 0; x < a.nx(); ++x) sum += p[x];
  });
  return sum;
}

}  // namespace subsonic
