#include "src/solver/domain3d.hpp"

#include "src/solver/lbm3d.hpp"
#include "src/util/check.hpp"

namespace subsonic {

namespace {
int wrap(int c, int n, bool periodic) {
  if (!periodic) return c;
  int r = c % n;
  if (r < 0) r += n;
  return r;
}
}  // namespace

Domain3D::Domain3D(const Mask3D& global_mask, Box3 box,
                   const FluidParams& params, Method method, int ghost,
                   int threads, int extra_pitch)
    : box_(box),
      ghost_(ghost),
      method_(method),
      params_(params),
      type_(Extents3{box.width(), box.height(), box.depth()}, ghost,
            extra_pitch),
      filter_mask_(Extents3{box.width(), box.height(), box.depth()}, ghost,
                   extra_pitch),
      rho_(Extents3{box.width(), box.height(), box.depth()}, ghost,
           extra_pitch),
      vx_(Extents3{box.width(), box.height(), box.depth()}, ghost,
          extra_pitch),
      vy_(Extents3{box.width(), box.height(), box.depth()}, ghost,
          extra_pitch),
      vz_(Extents3{box.width(), box.height(), box.depth()}, ghost,
          extra_pitch),
      rho_next_(Extents3{box.width(), box.height(), box.depth()}, ghost,
                extra_pitch),
      vx_next_(Extents3{box.width(), box.height(), box.depth()}, ghost,
               extra_pitch),
      vy_next_(Extents3{box.width(), box.height(), box.depth()}, ghost,
               extra_pitch),
      vz_next_(Extents3{box.width(), box.height(), box.depth()}, ghost,
               extra_pitch) {
  params_.validate();
  SUBSONIC_REQUIRE(!box.empty());
  SUBSONIC_REQUIRE(full_box(global_mask.extents()).intersect(box) == box);
  SUBSONIC_REQUIRE_MSG(global_mask.ghost() >= ghost,
                       "global mask needs at least the domain ghost width");
  threads_ = resolve_threads(threads);
  if (threads_ > 1) pool_ = std::make_shared<WorkerPool>(threads_);

  const Extents3 ge = global_mask.extents();
  for (int z = -ghost; z < nz() + ghost; ++z)
    for (int y = -ghost; y < ny() + ghost; ++y)
      for (int x = -ghost; x < nx() + ghost; ++x) {
        const int gx = wrap(box.x0 + x, ge.nx, params_.periodic_x);
        const int gy = wrap(box.y0 + y, ge.ny, params_.periodic_y);
        const int gz = wrap(box.z0 + z, ge.nz, params_.periodic_z);
        type_(x, y, z) =
            static_cast<std::uint8_t>(global_mask(gx, gy, gz));
      }

  // Precompute the static filter-direction bits (see Domain2D).
  if (ghost >= 3) {
    auto ok = [this](int x, int y, int z) {
      return node(x, y, z) != NodeType::kWall;
    };
    for (int z = -1; z < nz() + 1; ++z)
      for (int y = -1; y < ny() + 1; ++y)
        for (int x = -1; x < nx() + 1; ++x) {
          std::uint8_t bits = 0;
          if (node(x, y, z) == NodeType::kFluid) {
            if (ok(x - 2, y, z) && ok(x - 1, y, z) && ok(x + 1, y, z) &&
                ok(x + 2, y, z))
              bits |= 1;
            if (ok(x, y - 2, z) && ok(x, y - 1, z) && ok(x, y + 1, z) &&
                ok(x, y + 2, z))
              bits |= 2;
            if (ok(x, y, z - 2) && ok(x, y, z - 1) && ok(x, y, z + 1) &&
                ok(x, y, z + 2))
              bits |= 4;
          }
          filter_mask_(x, y, z) = bits;
        }
  }

  // Both buffers get the quiescent statics; see Domain2D.
  rho_.fill(params_.rho0);
  rho_next_.fill(params_.rho0);
  for (int z = -ghost; z < nz() + ghost; ++z)
    for (int y = -ghost; y < ny() + ghost; ++y)
      for (int x = -ghost; x < nx() + ghost; ++x)
        if (node(x, y, z) == NodeType::kInlet) {
          vx_(x, y, z) = params_.inlet_vx;
          vy_(x, y, z) = params_.inlet_vy;
          vz_(x, y, z) = params_.inlet_vz;
          vx_next_(x, y, z) = params_.inlet_vx;
          vy_next_(x, y, z) = params_.inlet_vy;
          vz_next_(x, y, z) = params_.inlet_vz;
        }

  const auto type_is = [this](NodeType t) {
    return [this, t](int x, int y, int z) { return node(x, y, z) == t; };
  };
  computed_spans_ =
      MaskSpans3D(-1, nx() + 1, -1, ny() + 1, -1, nz() + 1,
                  [this](int x, int y, int z) {
                    const NodeType t = node(x, y, z);
                    return t == NodeType::kFluid || t == NodeType::kOutlet;
                  });
  if (method == Method::kLatticeBoltzmann) {
    wall_spans_ = MaskSpans3D(-1, nx() + 1, -1, ny() + 1, -1, nz() + 1,
                              type_is(NodeType::kWall));
    inlet_spans_ = MaskSpans3D(-1, nx() + 1, -1, ny() + 1, -1, nz() + 1,
                               type_is(NodeType::kInlet));
    notwall_spans_ =
        MaskSpans3D(-ghost, nx() + ghost, -ghost, ny() + ghost, -ghost,
                    nz() + ghost, [this](int x, int y, int z) {
                      return node(x, y, z) != NodeType::kWall;
                    });
  }
  if (ghost >= 3)
    filter_spans_ = MaskSpans3D(-1, nx() + 1, -1, ny() + 1, -1, nz() + 1,
                                [this](int x, int y, int z) {
                                  return filter_mask_(x, y, z) != 0;
                                });
  nonfluid_spans_ =
      MaskSpans3D(-ghost, nx() + ghost, -ghost, ny() + ghost, -ghost,
                  nz() + ghost, [this](int x, int y, int z) {
                    return node(x, y, z) != NodeType::kFluid;
                  });

  if (method == Method::kLatticeBoltzmann) {
    // Pencil-interleaved SoA slabs, the 3D analogue of Domain2D: pencil
    // (y, z) of direction i at slab + (((z + g) * py + y + g) * kQ + i) *
    // pitch, each direction an ordinary strided view.  Allocated
    // uninitialized and first-touched by the worker pool (NUMA).
    const int fpitch = round_pitch<double>(box.width() + 2 * ghost) +
                       round_pitch<double>(extra_pitch);
    const std::size_t pencils =
        static_cast<std::size_t>(box.height() + 2 * ghost) *
        (box.depth() + 2 * ghost);
    const std::size_t slab = static_cast<std::size_t>(lbm3d::kQ) * fpitch *
                             pencils;
    fstore_.resize(slab);
    fstore_next_.resize(slab);
    first_touch_zero(pool_.get(), fstore_.data(), slab);
    first_touch_zero(pool_.get(), fstore_next_.data(), slab);
    f_.reserve(lbm3d::kQ);
    f_next_.reserve(lbm3d::kQ);
    for (int i = 0; i < lbm3d::kQ; ++i) {
      f_.emplace_back(fstore_.data() + static_cast<std::size_t>(i) * fpitch,
                      Extents3{box.width(), box.height(), box.depth()},
                      ghost, fpitch, lbm3d::kQ * fpitch);
      f_next_.emplace_back(
          fstore_next_.data() + static_cast<std::size_t>(i) * fpitch,
          Extents3{box.width(), box.height(), box.depth()}, ghost, fpitch,
          lbm3d::kQ * fpitch);
    }
    lbm3d::set_equilibrium_both(*this);
  }
}

PaddedField3D<double>& Domain3D::field(FieldId id) {
  switch (id) {
    case FieldId::kRho: return rho_;
    case FieldId::kVx: return vx_;
    case FieldId::kVy: return vy_;
    case FieldId::kVz: return vz_;
    default: {
      const int i = population_index(id);
      SUBSONIC_REQUIRE(i >= 0 && i < q());
      return f_[i];
    }
  }
}

const PaddedField3D<double>& Domain3D::field(FieldId id) const {
  return const_cast<Domain3D*>(this)->field(id);
}

}  // namespace subsonic
