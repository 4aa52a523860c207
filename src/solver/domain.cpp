#include "src/solver/domain.hpp"

#include "src/solver/lattice.hpp"
#include "src/solver/lbm.hpp"
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

template <int Dim>
Domain<Dim>::Domain(const Mask& global_mask, Box box,
                    const FluidParams& params, Method method, int ghost,
                    int threads, int extra_pitch)
    : box_(box),
      ghost_(ghost),
      method_(method),
      params_(params),
      nz_(Dim == 3 ? extents_of(box).sizes()[Dim - 1] : 1),
      type_(extents_of(box), ghost, extra_pitch),
      filter_mask_(extents_of(box), ghost, extra_pitch),
      rho_(extents_of(box), ghost, extra_pitch),
      rho_next_(extents_of(box), ghost, extra_pitch) {
  for (int a = 0; a < Dim; ++a) {
    v_[a] = Field(extents_of(box), ghost, extra_pitch);
    v_next_[a] = Field(extents_of(box), ghost, extra_pitch);
  }
  params_.validate();
  SUBSONIC_REQUIRE(!box.empty());
  SUBSONIC_REQUIRE(full_box(global_mask.extents()).intersect(box) == box);
  SUBSONIC_REQUIRE_MSG(global_mask.ghost() >= ghost,
                       "global mask needs at least the domain ghost width");
  threads_ = resolve_threads(threads);
  if (threads_ > 1) pool_ = std::make_shared<WorkerPool>(threads_);

  // Copy the local window of node types, wrapping periodic axes.  Where a
  // non-periodic window extends past the global padding this is never
  // reached because mask.ghost() >= ghost.
  const auto lo = box.lo();
  const auto n = global_mask.extents().sizes();
  const bool periodic[3] = {params_.periodic_x, params_.periodic_y,
                            params_.periodic_z};
  for_each_pencil(ghost, [&](int y, int z) {
    std::uint8_t* t = type_.pencil(y, z);
    const std::uint8_t* from = global_mask.pencil(
        wrap(lo[1] + y, n[1], periodic[1]),
        Dim == 3 ? wrap(lo[Dim - 1] + z, n[Dim - 1], periodic[2]) : 0);
    for (int x = -ghost; x < nx() + ghost; ++x)
      t[x] = from[wrap(lo[0] + x, n[0], periodic[0])];
  });

  // Precompute where the fourth-order filter may act (geometry is static,
  // so this never changes): direction a is usable at a fluid node when
  // none of the four off-centre points of its stencil along axis a is a
  // wall.
  if (ghost >= 3) {
    constexpr int kOff[4] = {-2, -1, 1, 2};
    for_each_pencil(1, [&](int y, int z) {
      // stencil[a][k][x]: the node kOff[k] away from (x, y, z) along a.
      const std::uint8_t* stencil[Dim][4];
      for (int k = 0; k < 4; ++k) {
        stencil[0][k] = type_.pencil(y, z) + kOff[k];
        for (int a = 1; a < Dim; ++a)
          stencil[a][k] = type_.pencil(y + (a == 1 ? kOff[k] : 0),
                                       z + (a == 2 ? kOff[k] : 0));
      }
      std::uint8_t* bits = filter_mask_.pencil(y, z);
      for (int x = -1; x < nx() + 1; ++x) {
        bits[x] = 0;
        if (type_at(x, y, z) != NodeType::kFluid) continue;
        for (int a = 0; a < Dim; ++a) {
          bool ok = true;
          for (int k = 0; k < 4; ++k)
            ok = ok && static_cast<NodeType>(stencil[a][k][x]) !=
                           NodeType::kWall;
          if (ok) bits[x] |= static_cast<std::uint8_t>(1 << a);
        }
      }
    });
  }

  // Quiescent initial state on every node including padding: density rho0,
  // velocity zero; inlet nodes blow at the prescribed jet velocity.  Both
  // buffers of each double-buffered field get the same state: cells the
  // kernels never write (walls, inlets, unexchanged padding) hold only
  // these statics, so either buffer is valid wherever it is read.
  rho_.fill(params_.rho0);
  rho_next_.fill(params_.rho0);
  const double inlet[3] = {params_.inlet_vx, params_.inlet_vy,
                           params_.inlet_vz};
  for_each_pencil(ghost, [&](int y, int z) {
    for (int x = -ghost; x < nx() + ghost; ++x)
      if (type_at(x, y, z) == NodeType::kInlet)
        for (int a = 0; a < Dim; ++a)
          v_[a].pencil(y, z)[x] = v_next_[a].pencil(y, z)[x] = inlet[a];
  });

  // Precompute the per-pencil span tables of the static geometry: the hot
  // loops iterate contiguous runs instead of testing node() per cell.
  const auto type_is = [this](NodeType t) {
    return [this, t](int x, int y, int z) { return type_at(x, y, z) == t; };
  };
  computed_spans_ = make_spans(1, [this](int x, int y, int z) {
    const NodeType t = type_at(x, y, z);
    return t == NodeType::kFluid || t == NodeType::kOutlet;
  });
  if (method == Method::kLatticeBoltzmann) {
    wall_spans_ = make_spans(1, type_is(NodeType::kWall));
    inlet_spans_ = make_spans(1, type_is(NodeType::kInlet));
    notwall_spans_ = make_spans(ghost, [this](int x, int y, int z) {
      return type_at(x, y, z) != NodeType::kWall;
    });
  }
  if (ghost >= 3)
    filter_spans_ = make_spans(1, [this](int x, int y, int z) {
      return filter_mask_.pencil(y, z)[x] != 0;
    });
  nonfluid_spans_ = make_spans(ghost, [this](int x, int y, int z) {
    return type_at(x, y, z) != NodeType::kFluid;
  });

  if (method == Method::kLatticeBoltzmann) {
    // One pencil-interleaved SoA slab per buffer (see f() in the header),
    // allocated uninitialized and first-touched by the worker pool so its
    // pages get homed next to the threads that will sweep them.  Only the
    // two-slab sweep gets the second slab (f_next): a multi-thread domain,
    // or 3D, which has no in-place sweep.
    constexpr int kQ = Lattice<Dim>::kQ;
    const int fpitch = round_pitch<double>(nx() + 2 * ghost) +
                       round_pitch<double>(extra_pitch);
    // Two spare row blocks beyond the padded pencils: the one-thread 2D
    // in-place sweep writes destinations two row blocks past their sources
    // and re-homes the views afterwards (population_origin), so the window
    // excursions up to +2 blocks.  A 3D slab carries them unused.
    const std::size_t rows =
        static_cast<std::size_t>(ny() + 2 * ghost) *
            (Dim == 3 ? nz_ + 2 * ghost : 1) +
        2;
    const std::size_t slab = static_cast<std::size_t>(kQ) * fpitch * rows;
    const auto add_slab = [&](auto& store, std::vector<Field>& planes) {
      store.resize(slab);
      first_touch_zero(pool_.get(), store.data(), slab);
      planes.reserve(kQ);
      for (int i = 0; i < kQ; ++i)
        planes.emplace_back(store.data() + static_cast<std::size_t>(i) * fpitch,
                            extents_of(box), ghost, fpitch, kQ * fpitch);
    };
    add_slab(fstore_, f_);
    if (threads_ > 1 || Dim == 3) add_slab(fstore_next_, f_next_);
    // Every population buffer starts at the equilibrium of the initial
    // macro state so that never-written padding (outside the global
    // domain) always holds a quiescent reservoir in whichever is current.
    lbm::set_equilibrium_both(*this);
  }
}

template <int Dim>
template <typename Pred>
typename Domain<Dim>::Spans Domain<Dim>::make_spans(int w, Pred pred) const {
  return Spans(interior().grown(w), pred);
}

template <int Dim>
typename Domain<Dim>::Field& Domain<Dim>::field(FieldId id) {
  if (id == FieldId::kRho) return rho_;
  if (is_population(id)) {
    const int i = population_index(id);
    SUBSONIC_REQUIRE(i >= 0 && i < q());
    return f_[i];
  }
  const int a = static_cast<int>(id) - static_cast<int>(FieldId::kVx);
  SUBSONIC_REQUIRE_MSG(a < Dim, "no such field in a 2D domain");
  return v_[a];
}

template <int Dim>
const typename Domain<Dim>::Field& Domain<Dim>::field(FieldId id) const {
  return const_cast<Domain*>(this)->field(id);
}

template class Domain<2>;
template class Domain<3>;

}  // namespace subsonic
