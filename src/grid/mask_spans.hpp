// Precomputed per-pencil runs of nodes satisfying a predicate (e.g.
// "computed by the solver", "wall", "filter applies here").  The geometry
// is static, so the hot loops can iterate contiguous [x0, x1) spans
// instead of testing node(x, y, z) at every cell — on geometries with many
// solid pencils (the flue pipe) whole pencils vanish from the iteration,
// and on open regions the per-cell branch disappears from the inner loop.
//
// Spans are built once at domain construction over a rectangular window
// (typically the padded local window) and clipped to arbitrary sub-boxes at
// iteration time, which is what lets the boundary-band and interior passes
// of the overlapped schedule share one span table.  One class template
// serves both dimensions; a 2D table is the one plane z = 0.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/grid/extents.hpp"
#include "src/util/check.hpp"

namespace subsonic {

/// One contiguous run [x0, x1) of matching nodes within a pencil.
struct MaskSpan {
  int x0 = 0;
  int x1 = 0;
  friend constexpr bool operator==(MaskSpan, MaskSpan) = default;
};

/// Per-pencil span table over a window box; pencils are (y, z) rows
/// along x.
template <int Dim>
class MaskSpans {
 public:
  using Box = typename GridTypes<Dim>::Box;

  MaskSpans() = default;

  /// Builds the table from `pred(x, y, z)` over `window`, pencil by
  /// pencil, z outer (z = 0 in 2D).
  template <typename Pred>
  MaskSpans(const Box& window, Pred&& pred) : window_(window) {
    const auto lo = window.lo(), hi = window.hi();
    for (int a = 0; a < Dim; ++a) SUBSONIC_REQUIRE(hi[a] >= lo[a]);
    for_each_pencil(window, [&](int y, int z) {
      pencil_begin_.push_back(static_cast<std::uint32_t>(spans_.size()));
      int run_start = lo[0];
      bool in_run = false;
      for (int x = lo[0]; x < hi[0]; ++x) {
        const bool hit = pred(x, y, z);
        if (hit && !in_run) {
          run_start = x;
          in_run = true;
        } else if (!hit && in_run) {
          spans_.push_back(MaskSpan{run_start, x});
          in_run = false;
        }
      }
      if (in_run) spans_.push_back(MaskSpan{run_start, hi[0]});
    });
    pencil_begin_.push_back(static_cast<std::uint32_t>(spans_.size()));
  }

  /// The box the table was built over.
  const Box& window() const { return window_; }

  /// The spans of pencil (y, z); empty outside the built window.  A 2D
  /// table ignores z.
  std::span<const MaskSpan> pencil(int y, int z = 0) const {
    const auto lo = window_.lo(), hi = window_.hi();
    if (y < lo[1] || y >= hi[1]) return {};
    std::size_t i = static_cast<std::size_t>(y - lo[1]);
    if constexpr (Dim == 3) {
      if (z < lo[2] || z >= hi[2]) return {};
      i += static_cast<std::size_t>(z - lo[2]) *
           static_cast<std::size_t>(hi[1] - lo[1]);
    }
    return {spans_.data() + pencil_begin_[i],
            spans_.data() + pencil_begin_[i + 1]};
  }

  /// Total matching nodes over the whole window.
  std::int64_t total() const {
    std::int64_t n = 0;
    for (const MaskSpan& s : spans_) n += s.x1 - s.x0;
    return n;
  }

 private:
  Box window_{};
  std::vector<std::uint32_t> pencil_begin_;  // spans_ index per pencil, +end
  std::vector<MaskSpan> spans_;
};

using MaskSpans2D = MaskSpans<2>;
using MaskSpans3D = MaskSpans<3>;

/// Calls fn(a, b) for every span of pencil (y, z) of `s` clipped to
/// [x0, x1).
template <int Dim, typename Fn>
void for_spans(const MaskSpans<Dim>& s, int y, int z, int x0, int x1,
               Fn&& fn) {
  for (const MaskSpan& m : s.pencil(y, z)) {
    const int a = std::max(m.x0, x0);
    const int b = std::min(m.x1, x1);
    if (a < b) fn(a, b);
  }
}

}  // namespace subsonic
