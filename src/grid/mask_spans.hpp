// Precomputed per-row runs of nodes satisfying a predicate (e.g. "computed
// by the solver", "wall", "filter applies here").  The geometry is static,
// so the hot loops can iterate contiguous [x0, x1) spans instead of testing
// node(x, y) at every cell — on geometries with many solid rows (the
// flue pipe) whole rows vanish from the iteration, and on open regions the
// per-cell branch disappears from the inner loop.
//
// Spans are built once at domain construction over a rectangular window
// (typically the padded local window) and clipped to arbitrary sub-boxes at
// iteration time, which is what lets the boundary-band and interior passes
// of the overlapped schedule share one span table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/grid/extents.hpp"
#include "src/util/check.hpp"

namespace subsonic {

/// One contiguous run [x0, x1) of matching nodes within a row.
struct MaskSpan {
  int x0 = 0;
  int x1 = 0;
  friend constexpr bool operator==(MaskSpan, MaskSpan) = default;
};

/// Per-row span table over a 2D window [x_lo, x_hi) x [y_lo, y_hi).
class MaskSpans2D {
 public:
  MaskSpans2D() = default;

  /// Builds the table from `pred(x, y)` over the window.
  template <typename Pred>
  MaskSpans2D(int x_lo, int x_hi, int y_lo, int y_hi, Pred&& pred)
      : y_lo_(y_lo), y_hi_(y_hi) {
    SUBSONIC_REQUIRE(x_hi >= x_lo && y_hi >= y_lo);
    row_begin_.reserve(static_cast<size_t>(y_hi - y_lo) + 1);
    for (int y = y_lo; y < y_hi; ++y) {
      row_begin_.push_back(static_cast<std::uint32_t>(spans_.size()));
      int run_start = x_lo;
      bool in_run = false;
      for (int x = x_lo; x < x_hi; ++x) {
        const bool hit = pred(x, y);
        if (hit && !in_run) {
          run_start = x;
          in_run = true;
        } else if (!hit && in_run) {
          spans_.push_back(MaskSpan{run_start, x});
          in_run = false;
        }
      }
      if (in_run) spans_.push_back(MaskSpan{run_start, x_hi});
    }
    row_begin_.push_back(static_cast<std::uint32_t>(spans_.size()));
  }

  int y_lo() const { return y_lo_; }
  int y_hi() const { return y_hi_; }

  /// The spans of row `y`; empty outside the built window.
  std::span<const MaskSpan> row(int y) const {
    if (y < y_lo_ || y >= y_hi_) return {};
    const size_t i = static_cast<size_t>(y - y_lo_);
    return {spans_.data() + row_begin_[i],
            spans_.data() + row_begin_[i + 1]};
  }

  /// Total matching nodes over the whole window.
  std::int64_t total() const {
    std::int64_t n = 0;
    for (const MaskSpan& s : spans_) n += s.x1 - s.x0;
    return n;
  }

 private:
  int y_lo_ = 0, y_hi_ = 0;
  std::vector<std::uint32_t> row_begin_;  // spans_ index of each row, +end
  std::vector<MaskSpan> spans_;
};

/// Per-row span table over a 3D window; rows are (y, z) pencils along x.
class MaskSpans3D {
 public:
  MaskSpans3D() = default;

  template <typename Pred>
  MaskSpans3D(int x_lo, int x_hi, int y_lo, int y_hi, int z_lo, int z_hi,
              Pred&& pred)
      : y_lo_(y_lo), y_hi_(y_hi), z_lo_(z_lo), z_hi_(z_hi) {
    SUBSONIC_REQUIRE(x_hi >= x_lo && y_hi >= y_lo && z_hi >= z_lo);
    const size_t rows =
        static_cast<size_t>(y_hi - y_lo) * static_cast<size_t>(z_hi - z_lo);
    row_begin_.reserve(rows + 1);
    for (int z = z_lo; z < z_hi; ++z) {
      for (int y = y_lo; y < y_hi; ++y) {
        row_begin_.push_back(static_cast<std::uint32_t>(spans_.size()));
        int run_start = x_lo;
        bool in_run = false;
        for (int x = x_lo; x < x_hi; ++x) {
          const bool hit = pred(x, y, z);
          if (hit && !in_run) {
            run_start = x;
            in_run = true;
          } else if (!hit && in_run) {
            spans_.push_back(MaskSpan{run_start, x});
            in_run = false;
          }
        }
        if (in_run) spans_.push_back(MaskSpan{run_start, x_hi});
      }
    }
    row_begin_.push_back(static_cast<std::uint32_t>(spans_.size()));
  }

  std::span<const MaskSpan> row(int y, int z) const {
    if (y < y_lo_ || y >= y_hi_ || z < z_lo_ || z >= z_hi_) return {};
    const size_t i = static_cast<size_t>(z - z_lo_) *
                         static_cast<size_t>(y_hi_ - y_lo_) +
                     static_cast<size_t>(y - y_lo_);
    return {spans_.data() + row_begin_[i],
            spans_.data() + row_begin_[i + 1]};
  }

  std::int64_t total() const {
    std::int64_t n = 0;
    for (const MaskSpan& s : spans_) n += s.x1 - s.x0;
    return n;
  }

 private:
  int y_lo_ = 0, y_hi_ = 0, z_lo_ = 0, z_hi_ = 0;
  std::vector<std::uint32_t> row_begin_;
  std::vector<MaskSpan> spans_;
};

}  // namespace subsonic
