#include "src/solver/domain2d.hpp"

#include "src/solver/lbm2d.hpp"
#include "src/util/check.hpp"

namespace subsonic {

namespace {

/// Wraps coordinate c into [0, n) when periodic; otherwise returns c
/// unchanged (callers then read the mask's padded wall default).
int wrap(int c, int n, bool periodic) {
  if (!periodic) return c;
  int r = c % n;
  if (r < 0) r += n;
  return r;
}

}  // namespace

Domain2D::Domain2D(const Mask2D& global_mask, Box2 box,
                   const FluidParams& params, Method method, int ghost,
                   int threads, int extra_pitch)
    : box_(box),
      ghost_(ghost),
      method_(method),
      params_(params),
      type_(Extents2{box.width(), box.height()}, ghost, extra_pitch),
      filter_mask_(Extents2{box.width(), box.height()}, ghost, extra_pitch),
      rho_(Extents2{box.width(), box.height()}, ghost, extra_pitch),
      vx_(Extents2{box.width(), box.height()}, ghost, extra_pitch),
      vy_(Extents2{box.width(), box.height()}, ghost, extra_pitch),
      rho_next_(Extents2{box.width(), box.height()}, ghost, extra_pitch),
      vx_next_(Extents2{box.width(), box.height()}, ghost, extra_pitch),
      vy_next_(Extents2{box.width(), box.height()}, ghost, extra_pitch) {
  params_.validate();
  SUBSONIC_REQUIRE(!box.empty());
  SUBSONIC_REQUIRE(full_box(global_mask.extents()).intersect(box) == box);
  SUBSONIC_REQUIRE_MSG(global_mask.ghost() >= ghost,
                       "global mask needs at least the domain ghost width");
  threads_ = resolve_threads(threads);
  if (threads_ > 1) pool_ = std::make_shared<WorkerPool>(threads_);

  const Extents2 ge = global_mask.extents();
  // Copy the local window of node types, wrapping periodic axes.  Where a
  // non-periodic window extends past the global padding this is never
  // reached because mask.ghost() >= ghost.
  for (int y = -ghost; y < ny() + ghost; ++y) {
    for (int x = -ghost; x < nx() + ghost; ++x) {
      const int gx = wrap(box.x0 + x, ge.nx, params_.periodic_x);
      const int gy = wrap(box.y0 + y, ge.ny, params_.periodic_y);
      type_(x, y) = static_cast<std::uint8_t>(global_mask(gx, gy));
    }
  }

  // Precompute where the fourth-order filter may act (geometry is static,
  // so this never changes): a direction is usable at a fluid node when
  // none of its four off-centre stencil points is a wall.
  if (ghost >= 3) {
    auto ok = [this](int x, int y) {
      return node(x, y) != NodeType::kWall;
    };
    for (int y = -1; y < ny() + 1; ++y)
      for (int x = -1; x < nx() + 1; ++x) {
        std::uint8_t bits = 0;
        if (node(x, y) == NodeType::kFluid) {
          if (ok(x - 2, y) && ok(x - 1, y) && ok(x + 1, y) && ok(x + 2, y))
            bits |= 1;
          if (ok(x, y - 2) && ok(x, y - 1) && ok(x, y + 1) && ok(x, y + 2))
            bits |= 2;
        }
        filter_mask_(x, y) = bits;
      }
  }

  // Quiescent initial state on every node including padding: density rho0,
  // velocity zero; inlet nodes blow at the prescribed jet velocity.  Both
  // buffers of each double-buffered field get the same state: cells the
  // kernels never write (walls, inlets, unexchanged padding) hold only
  // these statics, so either buffer is valid wherever it is read.
  rho_.fill(params_.rho0);
  rho_next_.fill(params_.rho0);
  for (int y = -ghost; y < ny() + ghost; ++y)
    for (int x = -ghost; x < nx() + ghost; ++x)
      if (node(x, y) == NodeType::kInlet) {
        vx_(x, y) = params_.inlet_vx;
        vy_(x, y) = params_.inlet_vy;
        vx_next_(x, y) = params_.inlet_vx;
        vy_next_(x, y) = params_.inlet_vy;
      }

  // Precompute the per-row span tables of the static geometry: the hot
  // loops iterate contiguous runs instead of testing node(x, y) per cell.
  const auto type_is = [this](NodeType t) {
    return [this, t](int x, int y) { return node(x, y) == t; };
  };
  computed_spans_ = MaskSpans2D(-1, nx() + 1, -1, ny() + 1,
                                [this](int x, int y) {
                                  const NodeType t = node(x, y);
                                  return t == NodeType::kFluid ||
                                         t == NodeType::kOutlet;
                                });
  if (method == Method::kLatticeBoltzmann) {
    wall_spans_ = MaskSpans2D(-1, nx() + 1, -1, ny() + 1,
                              type_is(NodeType::kWall));
    inlet_spans_ = MaskSpans2D(-1, nx() + 1, -1, ny() + 1,
                               type_is(NodeType::kInlet));
    notwall_spans_ =
        MaskSpans2D(-ghost, nx() + ghost, -ghost, ny() + ghost,
                    [this](int x, int y) {
                      return node(x, y) != NodeType::kWall;
                    });
  }
  if (ghost >= 3)
    filter_spans_ = MaskSpans2D(-1, nx() + 1, -1, ny() + 1,
                                [this](int x, int y) {
                                  return filter_mask_(x, y) != 0;
                                });
  nonfluid_spans_ = MaskSpans2D(-ghost, nx() + ghost, -ghost, ny() + ghost,
                                [this](int x, int y) {
                                  return node(x, y) != NodeType::kFluid;
                                });

  if (method == Method::kLatticeBoltzmann) {
    // One row-interleaved SoA slab per buffer (see f() in the header):
    // row y of direction i lives at slab + ((y + g) * kQ + i) * pitch, and
    // each f_[i] is a strided view of its direction.  The slabs are
    // allocated uninitialized and first-touched by the worker pool so
    // their pages get homed next to the threads that will sweep them.
    // Only a multi-thread domain gets the second slab (f_next).
    const int fpitch = round_pitch<double>(box.width() + 2 * ghost) +
                       round_pitch<double>(extra_pitch);
    // Two spare row blocks beyond the padded height: the one-thread
    // in-place sweep writes destinations two row blocks past their sources
    // and re-homes the views afterwards (population_origin), so the window
    // excursions up to +2 blocks.
    const int frows = box.height() + 2 * ghost + 2;
    const std::size_t slab =
        static_cast<std::size_t>(lbm2d::kQ) * fpitch * frows;
    const auto add_slab = [&](auto& store, auto& planes) {
      store.resize(slab);
      first_touch_zero(pool_.get(), store.data(), slab);
      planes.reserve(lbm2d::kQ);
      for (int i = 0; i < lbm2d::kQ; ++i)
        planes.emplace_back(
            store.data() + static_cast<std::size_t>(i) * fpitch,
            Extents2{box.width(), box.height()}, ghost, fpitch,
            lbm2d::kQ * fpitch);
    };
    add_slab(fstore_, f_);
    if (threads_ > 1) add_slab(fstore_next_, f_next_);
    // Every population buffer starts at the equilibrium of the initial
    // macro state so that never-written padding (outside the global
    // domain) always holds a quiescent reservoir in whichever is current.
    lbm2d::set_equilibrium_both(*this);
  }
}

PaddedField2D<double>& Domain2D::field(FieldId id) {
  switch (id) {
    case FieldId::kRho: return rho_;
    case FieldId::kVx: return vx_;
    case FieldId::kVy: return vy_;
    case FieldId::kVz: break;
    default: {
      const int i = population_index(id);
      SUBSONIC_REQUIRE(i >= 0 && i < q());
      return f_[i];
    }
  }
  SUBSONIC_REQUIRE_MSG(false, "no such field in a 2D domain");
  return rho_;  // unreachable
}

const PaddedField2D<double>& Domain2D::field(FieldId id) const {
  return const_cast<Domain2D*>(this)->field(id);
}

}  // namespace subsonic
