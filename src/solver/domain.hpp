// The per-process state of one subregion (paper sections 3-4): ghost-padded
// fields, a local window of the node-type mask, and the subregion's box in
// global coordinates.  A serial run is simply a Domain whose box covers the
// whole grid — the paper's point that padding makes the parallel program a
// straightforward extension of the serial one.  One class template serves
// both dimensions: the paper's 3D runs (section 7, figures 9-11) use the
// same subregion with a z axis.  Every loop here walks (y, z) pencils
// along x; a 2D domain is the one plane z = 0.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/geometry/grid_types.hpp"
#include "src/solver/field_id.hpp"
#include "src/solver/params.hpp"
#include "src/util/check.hpp"
#include "src/util/fp_env.hpp"
#include "src/util/worker_pool.hpp"

namespace subsonic {

template <int Dim>
class Domain {
 public:
  using Box = typename GridTypes<Dim>::Box;
  using Mask = subsonic::Mask<Dim>;
  using Spans = MaskSpans<Dim>;
  using Field = PaddedField<double, Dim>;

  /// Builds the local state for `box` of the global geometry.  The mask's
  /// ghost width must be at least `ghost` so the local window (including
  /// padding) can be copied out of it; periodic axes wrap the window.
  /// `threads` is the intra-subregion worker count the kernels shard rows
  /// over (0 = SUBSONIC_THREADS env or 1); any value produces bitwise
  /// identical fields.  `extra_pitch` lengthens every field row by that
  /// many unused elements before cache-line rounding (the Appendix-E
  /// padding experiments); it changes memory layout only, never results,
  /// and checkpoints are portable across different values.
  Domain(const Mask& global_mask, Box box, const FluidParams& params,
         Method method, int ghost, int threads = 0, int extra_pitch = 0);

  // The population fields are views into the interleaved slabs below;
  // copying would alias the original's storage.
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// The macroscopic fields, in dump and gather order: rho, then one
  /// velocity component per axis.  The codec, the gather and the
  /// schedule's velocity exchange all read the field set from here.
  static std::vector<FieldId> macro_fields() {
    std::vector<FieldId> ids{FieldId::kRho, FieldId::kVx, FieldId::kVy,
                             FieldId::kVz};
    ids.resize(Dim + 1);
    return ids;
  }
  /// The velocity components: macro_fields() without rho.
  static std::vector<FieldId> velocity_fields() {
    std::vector<FieldId> ids = macro_fields();
    ids.erase(ids.begin());
    return ids;
  }
  /// Every field a dump holds, in its order: the macro fields, then the
  /// q() populations.
  std::vector<FieldId> state_fields() const {
    std::vector<FieldId> ids = macro_fields();
    for (FieldId id : population_fields(q())) ids.push_back(id);
    return ids;
  }

  Box box() const { return box_; }
  /// The interior in local coordinates: [0, n) on every axis.
  Box interior() const { return full_box(extents_of(box_)); }
  int nx() const { return box_.width(); }
  int ny() const { return box_.height(); }
  int nz() const requires(Dim == 3) { return nz_; }
  int ghost() const { return ghost_; }
  Method method() const { return method_; }
  const FluidParams& params() const { return params_; }
  int q() const { return static_cast<int>(f_.size()); }  // 0 for FD

  /// Node type at *local* coordinates (x, y[, z]); the interior is
  /// [0, n) on every axis.
  template <typename... I>
  NodeType node(I... c) const {
    return static_cast<NodeType>(type_(c...));
  }

  /// Pencil pointer form of node(): NodeType(p[x]) == node at (x, y, z);
  /// a 2D domain ignores z.
  const std::uint8_t* node_row(int y, int z) const {
    return type_.pencil(y, z);
  }

  /// Precomputed filter applicability bits for node (x, y[, z]): bit a is
  /// set when the five-point stencil along axis a (x: 1, y: 2, z: 4)
  /// contains no wall.  Valid on the interior plus a one-node ring (the
  /// filter's region).
  template <typename... I>
  std::uint8_t filter_dirs(I... c) const {
    return filter_mask_(c...);
  }

  /// Pencil pointer form of filter_dirs: p[x] == filter_dirs(x, y, z); a
  /// 2D domain ignores z.
  const std::uint8_t* filter_dirs_row(int y, int z) const {
    return filter_mask_.pencil(y, z);
  }

  Field& rho() { return rho_; }
  const Field& rho() const { return rho_; }
  /// Velocity component a (0: x, 1: y, 2: z).
  Field& v(int a) { return v_[a]; }
  const Field& v(int a) const { return v_[a]; }
  Field& vx() { return v_[0]; }
  const Field& vx() const { return v_[0]; }
  Field& vy() { return v_[1]; }
  const Field& vy() const { return v_[1]; }
  Field& vz() requires(Dim == 3) { return v_[2]; }
  const Field& vz() const requires(Dim == 3) { return v_[2]; }

  /// Direction i of the distribution function.  The q directions are
  /// strided views into one pencil-interleaved SoA slab (pencil p of
  /// direction i at slab + (p * q + i) * pitch, p the pencil's index in
  /// the padded window, z outer): each direction still presents as an
  /// ordinary per-direction plane, but the fused collide-stream sweep
  /// touches one dense sequential allocation per buffer instead of q
  /// scattered ones — a measurable win, since hardware prefetchers track
  /// a few streams well and 2q + 3 of them poorly.
  Field& f(int i) { return f_[i]; }
  const Field& f(int i) const { return f_[i]; }

  /// Whether the domain holds a second population slab: LB with more than
  /// one thread, or in 3D, which has no in-place sweep.  Without it the
  /// collide-stream sweep runs in place on one slab (population_origin);
  /// with it, as a two-slab ping-pong.
  bool has_f_next() const { return !f_next_.empty(); }

  /// Streaming target buffer (LB); swapped with f after each two-slab
  /// sweep.  Asking a domain without it (!has_f_next()) is a
  /// contract_error.
  Field& f_next(int i) {
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
  /// (0 or 2).  A one-thread 2D domain's in-place collide-stream sweep
  /// writes each destination two row blocks past its source — the
  /// freshly-read blocks absorb the stores, so no second slab is read for
  /// ownership, or allocated — and then re-homes the views with
  /// shift_population_origin, so the origin oscillates 0 -> 2 -> 0 across
  /// steps.  The slabs carry two spare row blocks for exactly this
  /// excursion.  A multi-thread domain keeps the two-slab ping-pong
  /// (in-place needs a strict row order); either path stores bit-identical
  /// values.
  int population_origin() const { return f_origin_; }

  /// Moves the current population views by `blocks` whole row blocks
  /// (each q rows of the interleaved slab).  Only the in-place sweep
  /// calls this, with +2 from origin 0 and -2 from origin 2.
  void shift_population_origin(int blocks) requires(Dim == 2) {
    for (Field& plane : f_)
      plane.shift_view(static_cast<std::ptrdiff_t>(blocks) *
                       plane.row_stride());
    f_origin_ += blocks;
    SUBSONIC_REQUIRE(f_origin_ == 0 || f_origin_ == 2);
  }

  /// Write buffers of the double-buffered macroscopic fields.  A kernel
  /// pass reads the current buffer, writes the _next buffer, and swaps —
  /// an O(1) pointer exchange instead of the full-field snapshot copies
  /// the in-place update needed.
  Field& rho_next() { return rho_next_; }
  Field& v_next(int a) { return v_next_[a]; }
  Field& vx_next() { return v_next_[0]; }
  Field& vy_next() { return v_next_[1]; }
  Field& vz_next() requires(Dim == 3) { return v_next_[2]; }
  void swap_density() { std::swap(rho_, rho_next_); }
  void swap_velocity() { std::swap(v_, v_next_); }

  Field& field(FieldId id);
  const Field& field(FieldId id) const;

  /// Per-pencil runs of solver-updated (fluid | outlet) nodes over the
  /// interior plus a one-node ring — the FD update and LB relaxation
  /// iterate these instead of branching on node() per cell.
  const Spans& computed_spans() const { return computed_spans_; }
  /// Wall / inlet runs over the same window (LB relaxation only).
  const Spans& wall_spans() const { return wall_spans_; }
  const Spans& inlet_spans() const { return inlet_spans_; }
  /// Non-wall runs over the whole padded window (LB moments).
  const Spans& notwall_spans() const { return notwall_spans_; }
  /// Runs of nodes with at least one usable filter direction.
  const Spans& filter_spans() const { return filter_spans_; }
  /// Non-fluid (wall | inlet | outlet) runs over the whole padded window
  /// (the boundary pass).
  const Spans& nonfluid_spans() const { return nonfluid_spans_; }

  /// Integration step counter, advanced by the driver.
  long step() const { return step_; }
  void set_step(long s) { step_ = s; }

  /// Resolved intra-subregion thread count (>= 1).
  int threads() const { return threads_; }

  /// Fluid-span length of pencil (y, z) — the kernels' per-pencil work is
  /// proportional to the computed-span footprint, and wall/solid pencils
  /// cost (almost) nothing.
  long long row_weight(int y, int z) const {
    long long w = 0;
    for (const MaskSpan& s : computed_spans_.pencil(y, z)) w += s.x1 - s.x0;
    return w;
  }

  /// Calls fn(y, z) for every pencil in [y0, y1) x [z0, z1), sharded over
  /// the domain's worker pool as contiguous blocks of the flattened
  /// z-major pencil index (plain loop when threads() == 1).  Block
  /// boundaries are placed by cumulative fluid-span length (row_weight),
  /// so a wall-heavy end of the subregion doesn't idle the threads that
  /// drew it.  Callers must only use it for passes whose pencils are
  /// independent: every kernel here writes disjoint output pencils and
  /// reads buffers no pencil of the same pass writes, which is why any
  /// static partition — hence any thread count — yields bitwise identical
  /// fields.  Every chunk runs under FlushSubnormals
  /// (src/util/fp_env.hpp), taken on the thread that runs it, so each
  /// kernel flushes subnormals whatever thread, process or launcher it
  /// runs in, and the caller's floating-point mode is unchanged on return.
  template <typename Fn>
  void for_rows(int y0, int y1, int z0, int z1, Fn&& fn) const {
    const int ny = y1 - y0;
    const long long n = static_cast<long long>(ny) * (z1 - z0);
    if (n <= 0) return;
    const auto run = [&](int a, int b) {
      const FlushSubnormals flush;
      for (int r = a; r < b; ++r) fn(y0 + r % ny, z0 + r / ny);
    };
    if (pool_ && n > 1) {
      pool_->for_weighted(
          0, static_cast<int>(n),
          [&](int r) { return row_weight(y0 + r % ny, z0 + r / ny); }, run);
    } else {
      run(0, static_cast<int>(n));
    }
  }

  /// for_rows over the pencils (y, z) of box `b`; a 2D box is the one
  /// plane z = 0.
  template <typename Fn>
  void for_pencils(const Box& b, Fn&& fn) const {
    if constexpr (Dim == 2)
      for_rows(b.y0, b.y1, 0, 1, fn);
    else
      for_rows(b.y0, b.y1, b.z0, b.z1, fn);
  }

  /// Calls fn(y, z) on this thread, z outer, for every pencil of the
  /// interior grown by `w` nodes on each side (w = ghost(): the padded
  /// window).  The dump codec's row order.
  template <typename Fn>
  void for_each_pencil(int w, Fn&& fn) const {
    subsonic::for_each_pencil(interior().grown(w), fn);
  }

 private:
  NodeType type_at(int x, int y, int z) const {
    return static_cast<NodeType>(node_row(y, z)[x]);
  }
  template <typename Pred>
  Spans make_spans(int w, Pred pred) const;

  Box box_;
  int ghost_ = 0;
  Method method_;
  FluidParams params_;
  int nz_ = 1;  ///< interior nodes along z; the one plane in 2D
  PaddedField<std::uint8_t, Dim> type_;
  PaddedField<std::uint8_t, Dim> filter_mask_;
  Field rho_, rho_next_;
  std::array<Field, Dim> v_, v_next_;
  // Interleaved SoA storage behind the f_ / f_next_ views (LB only; the
  // second slab and f_next_ only where has_f_next()).  After an odd
  // number of swap_populations calls, f_ views point into fstore_next_
  // and vice versa — the slabs are anonymous storage.
  std::vector<double, UninitCacheAlignedAllocator<double>> fstore_;
  std::vector<double, UninitCacheAlignedAllocator<double>> fstore_next_;
  std::vector<Field> f_;
  std::vector<Field> f_next_;
  int f_origin_ = 0;       ///< row-block offset of the f_ views (0 or 2)
  int f_next_origin_ = 0;  ///< same for the f_next_ views
  Spans computed_spans_;
  Spans wall_spans_;
  Spans inlet_spans_;
  Spans notwall_spans_;
  Spans filter_spans_;
  Spans nonfluid_spans_;
  long step_ = 0;
  int threads_ = 1;
  std::shared_ptr<WorkerPool> pool_;  // null when threads_ == 1
};

using Domain2D = Domain<2>;
using Domain3D = Domain<3>;

extern template class Domain<2>;
extern template class Domain<3>;

}  // namespace subsonic
