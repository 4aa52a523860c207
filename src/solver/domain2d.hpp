// The per-process state of one subregion (paper sections 3-4): ghost-padded
// fields, a local window of the node-type mask, and the subregion's box in
// global coordinates.  A serial run is simply a Domain whose box covers the
// whole grid — the paper's point that padding makes the parallel program a
// straightforward extension of the serial one.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "src/geometry/mask.hpp"
#include "src/grid/extents.hpp"
#include "src/grid/mask_spans.hpp"
#include "src/grid/padded_field.hpp"
#include "src/solver/field_id.hpp"
#include "src/solver/params.hpp"
#include "src/util/check.hpp"
#include "src/util/fp_env.hpp"
#include "src/util/worker_pool.hpp"

namespace subsonic {

class Domain2D {
 public:
  /// Builds the local state for `box` of the global geometry.  The mask's
  /// ghost width must be at least `ghost` so the local window (including
  /// padding) can be copied out of it; periodic axes wrap the window.
  /// `threads` is the intra-subregion worker count the kernels shard rows
  /// over (0 = SUBSONIC_THREADS env or 1); any value produces bitwise
  /// identical fields.  `extra_pitch` lengthens every field row by that
  /// many unused elements before cache-line rounding (the Appendix-E
  /// padding experiments); it changes memory layout only, never results,
  /// and checkpoints are portable across different values.
  Domain2D(const Mask2D& global_mask, Box2 box, const FluidParams& params,
           Method method, int ghost, int threads = 0, int extra_pitch = 0);

  // The population fields are views into the interleaved slabs below;
  // copying would alias the original's storage.
  Domain2D(const Domain2D&) = delete;
  Domain2D& operator=(const Domain2D&) = delete;

  Box2 box() const { return box_; }
  int nx() const { return box_.width(); }
  int ny() const { return box_.height(); }
  int ghost() const { return ghost_; }
  Method method() const { return method_; }
  const FluidParams& params() const { return params_; }
  int q() const { return static_cast<int>(f_.size()); }  // 0 for FD

  /// Node type at *local* coordinates (interior [0,nx) x [0,ny)).
  NodeType node(int x, int y) const {
    return static_cast<NodeType>(type_(x, y));
  }

  /// Precomputed filter applicability bits for node (x, y): bit 0 — the
  /// five-point x stencil contains no wall; bit 1 — same for y.  Valid on
  /// the interior plus a one-node ring (the filter's region).
  std::uint8_t filter_dirs(int x, int y) const { return filter_mask_(x, y); }

  /// Row pointer form of filter_dirs: p[x] == filter_dirs(x, y).
  const std::uint8_t* filter_dirs_row(int y) const {
    return filter_mask_.row_ptr(y);
  }

  PaddedField2D<double>& rho() { return rho_; }
  const PaddedField2D<double>& rho() const { return rho_; }
  PaddedField2D<double>& vx() { return vx_; }
  const PaddedField2D<double>& vx() const { return vx_; }
  PaddedField2D<double>& vy() { return vy_; }
  const PaddedField2D<double>& vy() const { return vy_; }

  /// Direction i of the distribution function.  The kQ directions are
  /// strided views into one row-interleaved SoA slab (row y of direction i
  /// at slab + (y * kQ + i) * pitch): each direction still presents as an
  /// ordinary per-direction plane, but the fused collide-stream sweep
  /// touches one dense sequential allocation per buffer instead of kQ
  /// scattered ones — a measurable win, since hardware prefetchers track
  /// a few streams well and 2 * kQ + 3 of them poorly.
  PaddedField2D<double>& f(int i) { return f_[i]; }
  const PaddedField2D<double>& f(int i) const { return f_[i]; }

  /// Whether the domain holds a second population slab (LB with more than
  /// one thread).  Without it the collide-stream sweep runs in place on
  /// one slab (population_origin); with it, as a two-slab ping-pong.
  bool has_f_next() const { return !f_next_.empty(); }

  /// Streaming target buffer (LB); swapped with f after each two-slab
  /// sweep.  Asking a domain without it (!has_f_next()) is a
  /// contract_error.
  PaddedField2D<double>& f_next(int i) {
    SUBSONIC_REQUIRE_MSG(has_f_next(),
                         "no second population slab: the domain sweeps in "
                         "place at one thread");
    return f_next_[i];
  }
  /// Swaps the view vectors; the two slabs themselves never move.
  void swap_populations() {
    SUBSONIC_REQUIRE_MSG(has_f_next(),
                         "no second population slab to swap with: the "
                         "domain sweeps in place at one thread");
    f_.swap(f_next_);
    std::swap(f_origin_, f_next_origin_);
  }

  /// Row-block offset of the current population views inside their slab
  /// (0 or 2).  A one-thread domain's in-place collide-stream sweep writes
  /// each destination two row blocks past its source — the freshly-read
  /// blocks absorb the stores, so no second slab is read for ownership,
  /// or allocated — and then re-homes the views with
  /// shift_population_origin, so the origin oscillates 0 -> 2 -> 0 across
  /// steps.  The slabs carry two spare row blocks for exactly this
  /// excursion.  A multi-thread domain keeps the two-slab ping-pong
  /// (in-place needs a strict row order); either path stores bit-identical
  /// values.
  int population_origin() const { return f_origin_; }

  /// Moves the current population views by `blocks` whole row blocks
  /// (each kQ rows of the interleaved slab).  Only the in-place sweep
  /// calls this, with +2 from origin 0 and -2 from origin 2.
  void shift_population_origin(int blocks) {
    for (PaddedField2D<double>& v : f_)
      v.shift_view(static_cast<std::ptrdiff_t>(blocks) * v.row_stride());
    f_origin_ += blocks;
    SUBSONIC_REQUIRE(f_origin_ == 0 || f_origin_ == 2);
  }

  /// Write buffers of the double-buffered macroscopic fields.  A kernel
  /// pass reads the current buffer, writes the _next buffer, and swaps —
  /// an O(1) pointer exchange instead of the full-field snapshot copies
  /// the in-place update needed.
  PaddedField2D<double>& rho_next() { return rho_next_; }
  PaddedField2D<double>& vx_next() { return vx_next_; }
  PaddedField2D<double>& vy_next() { return vy_next_; }
  void swap_density() { std::swap(rho_, rho_next_); }
  void swap_velocity() {
    std::swap(vx_, vx_next_);
    std::swap(vy_, vy_next_);
  }

  PaddedField2D<double>& field(FieldId id);
  const PaddedField2D<double>& field(FieldId id) const;

  /// Per-row runs of solver-updated (fluid | outlet) nodes over the
  /// interior plus a one-node ring — the FD update and LB relaxation
  /// iterate these instead of branching on node() per cell.
  const MaskSpans2D& computed_spans() const { return computed_spans_; }
  /// Wall / inlet runs over the same window (LB relaxation only).
  const MaskSpans2D& wall_spans() const { return wall_spans_; }
  const MaskSpans2D& inlet_spans() const { return inlet_spans_; }
  /// Non-wall runs over the whole padded window (LB moments).
  const MaskSpans2D& notwall_spans() const { return notwall_spans_; }
  /// Runs of nodes with at least one usable filter direction.
  const MaskSpans2D& filter_spans() const { return filter_spans_; }
  /// Non-fluid (wall | inlet | outlet) runs over the whole padded window
  /// (the boundary pass).
  const MaskSpans2D& nonfluid_spans() const { return nonfluid_spans_; }

  /// Integration step counter, advanced by the driver.
  long step() const { return step_; }
  void set_step(long s) { step_ = s; }

  /// Resolved intra-subregion thread count (>= 1).
  int threads() const { return threads_; }

  /// Fluid-span length of row y — the kernels' per-row work is
  /// proportional to the computed-span footprint, and wall/solid rows
  /// cost (almost) nothing.
  long long row_weight(int y) const {
    long long w = 0;
    for (const MaskSpan& s : computed_spans_.row(y)) w += s.x1 - s.x0;
    return w;
  }

  /// Calls fn(y) for every row y in [y0, y1), sharded over the domain's
  /// worker pool as contiguous row blocks (plain loop when threads() == 1).
  /// Block boundaries are placed by cumulative fluid-span length
  /// (row_weight), so a wall-heavy end of the subregion doesn't idle the
  /// threads that drew it.  Callers must only use it for passes whose rows
  /// are independent: every kernel here writes disjoint output rows and
  /// reads buffers no row of the same pass writes, which is why any static
  /// partition — hence any thread count — yields bitwise identical fields.
  /// Every chunk runs under FlushSubnormals (src/util/fp_env.hpp), taken
  /// on the thread that runs it, so each kernel flushes subnormals whatever
  /// thread, process or launcher it runs in, and the caller's floating-point
  /// mode is unchanged on return.
  template <typename Fn>
  void for_rows(int y0, int y1, Fn&& fn) const {
    const auto rows = [&fn](int a, int b) {
      const FlushSubnormals flush;
      for (int y = a; y < b; ++y) fn(y);
    };
    if (pool_ && y1 - y0 > 1) {
      pool_->for_weighted(
          y0, y1, [this](int y) { return row_weight(y); }, rows);
    } else {
      rows(y0, y1);
    }
  }

 private:
  Box2 box_;
  int ghost_ = 0;
  Method method_;
  FluidParams params_;
  PaddedField2D<std::uint8_t> type_;
  PaddedField2D<std::uint8_t> filter_mask_;
  PaddedField2D<double> rho_, vx_, vy_;
  PaddedField2D<double> rho_next_, vx_next_, vy_next_;
  // Interleaved SoA storage behind the f_ / f_next_ views (LB only; the
  // second slab and f_next_ only when threads_ > 1).  After an odd number
  // of swap_populations calls, f_ views point into fstore_next_ and vice
  // versa — the slabs are anonymous storage.
  std::vector<double, UninitCacheAlignedAllocator<double>> fstore_;
  std::vector<double, UninitCacheAlignedAllocator<double>> fstore_next_;
  std::vector<PaddedField2D<double>> f_;
  std::vector<PaddedField2D<double>> f_next_;
  int f_origin_ = 0;       ///< row-block offset of the f_ views (0 or 2)
  int f_next_origin_ = 0;  ///< same for the f_next_ views
  MaskSpans2D computed_spans_;
  MaskSpans2D wall_spans_;
  MaskSpans2D inlet_spans_;
  MaskSpans2D notwall_spans_;
  MaskSpans2D filter_spans_;
  MaskSpans2D nonfluid_spans_;
  long step_ = 0;
  int threads_ = 1;
  std::shared_ptr<WorkerPool> pool_;  // null when threads_ == 1
};

}  // namespace subsonic
