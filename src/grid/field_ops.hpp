// Reductions and element-wise helpers over padded fields.  All interior-only
// (ghost values are communication scratch and must not affect norms).
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
template <typename T>
T max_abs_diff(const PaddedField2D<T>& a, const PaddedField2D<T>& b) {
  SUBSONIC_REQUIRE(a.interior() == b.interior());
  T worst{};
  for (int y = 0; y < a.ny(); ++y)
    for (int x = 0; x < a.nx(); ++x)
      worst = detail::nan_max(worst,
                              static_cast<T>(std::abs(a(x, y) - b(x, y))));
  return worst;
}

template <typename T>
T max_abs_diff(const PaddedField3D<T>& a, const PaddedField3D<T>& b) {
  SUBSONIC_REQUIRE(a.interior() == b.interior());
  T worst{};
  for (int z = 0; z < a.nz(); ++z)
    for (int y = 0; y < a.ny(); ++y)
      for (int x = 0; x < a.nx(); ++x)
        worst = detail::nan_max(
            worst, static_cast<T>(std::abs(a(x, y, z) - b(x, y, z))));
  return worst;
}

/// max |a| over the interior; NaN if any value is NaN.
template <typename T>
T max_abs(const PaddedField2D<T>& a) {
  T worst{};
  for (int y = 0; y < a.ny(); ++y)
    for (int x = 0; x < a.nx(); ++x)
      worst = detail::nan_max(worst, static_cast<T>(std::abs(a(x, y))));
  return worst;
}

template <typename T>
T max_abs(const PaddedField3D<T>& a) {
  T worst{};
  for (int z = 0; z < a.nz(); ++z)
    for (int y = 0; y < a.ny(); ++y)
      for (int x = 0; x < a.nx(); ++x)
        worst = detail::nan_max(worst, static_cast<T>(std::abs(a(x, y, z))));
  return worst;
}

/// Discrete L2 norm over the interior: sqrt(sum a^2 / count).
template <typename T>
double l2_norm(const PaddedField2D<T>& a) {
  double sum = 0;
  for (int y = 0; y < a.ny(); ++y)
    for (int x = 0; x < a.nx(); ++x) sum += double(a(x, y)) * a(x, y);
  return std::sqrt(sum / double(a.interior().count()));
}

/// Sum over the interior (e.g. total mass of a density field).
template <typename T>
double interior_sum(const PaddedField2D<T>& a) {
  double sum = 0;
  for (int y = 0; y < a.ny(); ++y)
    for (int x = 0; x < a.nx(); ++x) sum += a(x, y);
  return sum;
}

template <typename T>
double interior_sum(const PaddedField3D<T>& a) {
  double sum = 0;
  for (int z = 0; z < a.nz(); ++z)
    for (int y = 0; y < a.ny(); ++y)
      for (int x = 0; x < a.nx(); ++x) sum += a(x, y, z);
  return sum;
}

}  // namespace subsonic
