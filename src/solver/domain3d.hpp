// Per-process state of one 3D subregion; the 3D counterpart of Domain2D.
// The paper's 3D runs (section 7, figures 9-11) use grids from 10^3 to
// 44^3 per subregion and (J x K x L) decompositions.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "src/geometry/mask.hpp"
#include "src/grid/extents.hpp"
#include "src/grid/mask_spans.hpp"
#include "src/grid/padded_field.hpp"
#include "src/solver/field_id.hpp"
#include "src/solver/params.hpp"
#include "src/util/fp_env.hpp"
#include "src/util/worker_pool.hpp"

namespace subsonic {

class Domain3D {
 public:
  /// `threads` and `extra_pitch` as in Domain2D: intra-subregion worker
  /// count (0 = SUBSONIC_THREADS env or 1) and Appendix-E row padding;
  /// both are bitwise neutral.
  Domain3D(const Mask3D& global_mask, Box3 box, const FluidParams& params,
           Method method, int ghost, int threads = 0, int extra_pitch = 0);

  // The population fields are views into the interleaved slabs below;
  // copying would alias the original's storage.
  Domain3D(const Domain3D&) = delete;
  Domain3D& operator=(const Domain3D&) = delete;

  Box3 box() const { return box_; }
  int nx() const { return box_.width(); }
  int ny() const { return box_.height(); }
  int nz() const { return box_.depth(); }
  int ghost() const { return ghost_; }
  Method method() const { return method_; }
  const FluidParams& params() const { return params_; }
  int q() const { return static_cast<int>(f_.size()); }

  NodeType node(int x, int y, int z) const {
    return static_cast<NodeType>(type_(x, y, z));
  }

  /// Precomputed filter applicability bits (x: 1, y: 2, z: 4); valid on
  /// the interior plus a one-node ring.  See Domain2D::filter_dirs.
  std::uint8_t filter_dirs(int x, int y, int z) const {
    return filter_mask_(x, y, z);
  }

  /// Pencil pointer form of filter_dirs: p[x] == filter_dirs(x, y, z).
  const std::uint8_t* filter_dirs_row(int y, int z) const {
    return filter_mask_.row_ptr(y, z);
  }

  PaddedField3D<double>& rho() { return rho_; }
  const PaddedField3D<double>& rho() const { return rho_; }
  PaddedField3D<double>& vx() { return vx_; }
  const PaddedField3D<double>& vx() const { return vx_; }
  PaddedField3D<double>& vy() { return vy_; }
  const PaddedField3D<double>& vy() const { return vy_; }
  PaddedField3D<double>& vz() { return vz_; }
  const PaddedField3D<double>& vz() const { return vz_; }

  /// Direction i of the distribution function — a strided view into the
  /// pencil-interleaved SoA slab; see Domain2D::f.
  PaddedField3D<double>& f(int i) { return f_[i]; }
  const PaddedField3D<double>& f(int i) const { return f_[i]; }
  PaddedField3D<double>& f_next(int i) { return f_next_[i]; }
  /// Swaps the view vectors; the two slabs themselves never move.
  void swap_populations() { f_.swap(f_next_); }

  /// Write buffers of the double-buffered macroscopic fields; see
  /// Domain2D for the read-current / write-next / swap protocol.
  PaddedField3D<double>& rho_next() { return rho_next_; }
  PaddedField3D<double>& vx_next() { return vx_next_; }
  PaddedField3D<double>& vy_next() { return vy_next_; }
  PaddedField3D<double>& vz_next() { return vz_next_; }
  void swap_density() { std::swap(rho_, rho_next_); }
  void swap_velocity() {
    std::swap(vx_, vx_next_);
    std::swap(vy_, vy_next_);
    std::swap(vz_, vz_next_);
  }

  PaddedField3D<double>& field(FieldId id);
  const PaddedField3D<double>& field(FieldId id) const;

  /// Static per-row span tables; see Domain2D.
  const MaskSpans3D& computed_spans() const { return computed_spans_; }
  const MaskSpans3D& wall_spans() const { return wall_spans_; }
  const MaskSpans3D& inlet_spans() const { return inlet_spans_; }
  const MaskSpans3D& notwall_spans() const { return notwall_spans_; }
  const MaskSpans3D& filter_spans() const { return filter_spans_; }
  const MaskSpans3D& nonfluid_spans() const { return nonfluid_spans_; }

  long step() const { return step_; }
  void set_step(long s) { step_ = s; }

  /// Resolved intra-subregion thread count (>= 1).
  int threads() const { return threads_; }

  /// Fluid-span length of pencil (y, z); see Domain2D::row_weight.
  long long row_weight(int y, int z) const {
    long long w = 0;
    for (const MaskSpan& s : computed_spans_.row(y, z)) w += s.x1 - s.x0;
    return w;
  }

  /// Calls fn(y, z) for every (y, z) pencil in [y0, y1) x [z0, z1),
  /// sharded over the worker pool as contiguous blocks of the flattened
  /// z-major pencil index, with block boundaries placed by cumulative
  /// fluid-span length; see Domain2D::for_rows for the independence
  /// requirement, the determinism argument and the floating-point mode.
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
          [&](int r) { return row_weight(y0 + r % ny, z0 + r / ny); },
          run);
    } else {
      run(0, static_cast<int>(n));
    }
  }

 private:
  Box3 box_;
  int ghost_ = 0;
  Method method_;
  FluidParams params_;
  PaddedField3D<std::uint8_t> type_;
  PaddedField3D<std::uint8_t> filter_mask_;
  PaddedField3D<double> rho_, vx_, vy_, vz_;
  PaddedField3D<double> rho_next_, vx_next_, vy_next_, vz_next_;
  // Interleaved SoA storage behind the f_ / f_next_ views (LB only);
  // see Domain2D.
  std::vector<double, UninitCacheAlignedAllocator<double>> fstore_;
  std::vector<double, UninitCacheAlignedAllocator<double>> fstore_next_;
  std::vector<PaddedField3D<double>> f_;
  std::vector<PaddedField3D<double>> f_next_;
  MaskSpans3D computed_spans_;
  MaskSpans3D wall_spans_;
  MaskSpans3D inlet_spans_;
  MaskSpans3D notwall_spans_;
  MaskSpans3D filter_spans_;
  MaskSpans3D nonfluid_spans_;
  long step_ = 0;
  int threads_ = 1;
  std::shared_ptr<WorkerPool> pool_;  // null when threads_ == 1
};

}  // namespace subsonic
