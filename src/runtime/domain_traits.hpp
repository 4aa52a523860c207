// The dimension axis of the runtime, factored into one traits class.  The
// paper's runtime design — subregion processes, ghost exchange, near-
// synchronization, staggered saving (sections 3-4) — is dimension-
// independent; only the concrete grid types are not.  DomainTraits<Dim>
// collects exactly those concrete pieces, so the serial, threaded-parallel
// and supervised-process drivers can each be written once as a template
// and instantiated for 2D and 3D.  Its base, DomainTraitsBase<Dim>, holds
// the types and the block and link factories once, over the generic block
// layer (BlockDecomposition, make_link_plans, pack_into/unpack_from); each
// specialisation adds only what differs: schedule, compute dispatch, macro
// fields, equilibrium, quiescent values, periodic wraps, interior copy and
// the checkpoint-box match.
#pragma once

#include <vector>

#include "src/decomp/block_decomposition.hpp"
#include "src/decomp/decomposition.hpp"
#include "src/geometry/mask.hpp"
#include "src/runtime/exchange.hpp"
#include "src/solver/domain2d.hpp"
#include "src/solver/domain3d.hpp"
#include "src/solver/lbm2d.hpp"
#include "src/solver/lbm3d.hpp"
#include "src/solver/schedule.hpp"
#include "src/util/check.hpp"

namespace subsonic {

/// What DomainTraits<2> and <3> share: the grid types, the decomposition,
/// block and link factories, and the per-link pack/unpack, each written
/// once over the dimension-generic block layer.
template <int Dim>
struct DomainTraitsBase : GridTypes<Dim> {
  static constexpr int kDims = Dim;

  using typename GridTypes<Dim>::Mask;
  using typename GridTypes<Dim>::Decomp;
  using typename GridTypes<Dim>::Box;
  using Domain = std::conditional_t<Dim == 2, Domain2D, Domain3D>;
  using BlockDecomp = BlockDecomposition<Dim>;
  using LinkPlan = subsonic::LinkPlan<Dim>;

  static Decomp make_decomposition(const Mask& mask, const GridShape& grid) {
    return Decomp(mask.extents(), grid);
  }

  /// Over-decomposition of the same grid into ~side^Dim blocks seeded onto
  /// the `grid` rank layout; `side` resolves through resolve_block_side
  /// (0: one block per rank), `ghost` bounds the smallest legal block, and
  /// `p` names the periodic axes the activity rule wraps (the default
  /// closes every axis).
  static BlockDecomp make_block_decomposition(const Mask& mask,
                                              const GridShape& grid, int side,
                                              int ghost,
                                              const FluidParams& p = {}) {
    return BlockDecomp(mask, grid, resolve_block_side(side), ghost,
                       periodic_axes(p));
  }

  /// Link plans of one *block* over the fine block grid — make_link_plans
  /// with "rank" read as "block id"; inactive neighbour blocks are dropped
  /// exactly like inactive ranks.
  static std::vector<LinkPlan> make_block_links(const BlockDecomp& bd,
                                                int block, int ghost,
                                                const FluidParams& p) {
    return make_link_plans<Dim>(bd.blocks(), block, ghost, p, bd.active());
  }

  static std::vector<LinkPlan> make_links(const Decomp& d, int rank,
                                          int ghost, const FluidParams& p,
                                          const std::vector<bool>& active) {
    return make_link_plans<Dim>(d, rank, ghost, p, active);
  }

  /// One link's payload as its own vector, and its unpack.  The runtime
  /// packs straight into rank frames (BlockSet); these per-link forms
  /// serve the benchmark's exchange timings.
  static std::vector<double> pack(const Domain& dom,
                                  const std::vector<FieldId>& fields,
                                  Box box) {
    std::vector<double> payload(static_cast<size_t>(box.count()) *
                                fields.size());
    pack_into(dom, fields, box, payload.data());
    return payload;
  }

  static void unpack(Domain& dom, const std::vector<FieldId>& fields,
                     Box box, const std::vector<double>& payload) {
    SUBSONIC_REQUIRE(payload.size() ==
                     static_cast<size_t>(box.count()) * fields.size());
    unpack_from(dom, fields, box, payload.data());
  }

  static bool thinner_than_ghost(const Box& b, int ghost) {
    for (int a = 0; a < Dim; ++a)
      if (b.hi()[a] - b.lo()[a] < ghost) return true;
    return false;
  }
};

template <int Dim>
struct DomainTraits;

template <>
struct DomainTraits<2> : DomainTraitsBase<2> {
  /// Base of the reinitialize sync-epoch counter; the 2D and 3D bases are
  /// disjoint so sync tags can never collide on a shared transport.
  static constexpr long kSyncEpochBase = 0;

  using Field = PaddedField2D<double>;

  static std::vector<Phase> make_schedule(Method method) {
    return make_schedule2d(method);
  }

  static void run_compute(Domain& d, ComputeKind kind,
                          ComputePass pass = ComputePass::kFull) {
    run_compute2d(d, kind, pass);
  }

  static std::vector<FieldId> macro_fields() {
    return {FieldId::kRho, FieldId::kVx, FieldId::kVy};
  }

  static void set_equilibrium(Domain& d) { lbm2d::set_equilibrium_both(d); }

  /// Value an inactive (all-solid) subregion contributes to a gather —
  /// what the serial boundary pass holds at wall nodes.
  static double quiescent(FieldId id, const FluidParams& p) {
    if (id == FieldId::kRho) return p.rho0;
    if (is_population(id))
      return lbm2d::equilibrium(population_index(id), p.rho0, 0.0, 0.0);
    return 0.0;
  }

  /// Periodic wrap of one field's ghost layers (serial runs; no-op without
  /// periodicity).  Columns wrap first over interior rows only; the y wrap
  /// copies whole rows including the x padding, completing the corners.
  static void fill_periodic(const Domain& d, Field& u) {
    const FluidParams& p = d.params();
    const int g = d.ghost();
    const int nx = d.nx();
    const int ny = d.ny();
    if (p.periodic_x) {
      for (int y = 0; y < ny; ++y)
        for (int k = 1; k <= g; ++k) {
          u(-k, y) = u(nx - k, y);
          u(nx - 1 + k, y) = u(k - 1, y);
        }
    }
    if (p.periodic_y) {
      for (int k = 1; k <= g; ++k)
        for (int x = -g; x < nx + g; ++x) {
          u(x, -k) = u(x, ny - k);
          u(x, ny - 1 + k) = u(x, k - 1);
        }
    }
  }

  /// Copies the interior of `dom`'s field `id` into the global-coordinate
  /// window `b` of `out` (the per-rank half of a gather).
  static void copy_interior(Field& out, const Domain& dom, FieldId id,
                            const Box& b) {
    const Field& u = dom.field(id);
    for (int y = 0; y < b.height(); ++y)
      for (int x = 0; x < b.width(); ++x) out(b.x0 + x, b.y0 + y) = u(x, y);
  }

  static Field make_global_field(const Decomp& d) { return Field(d.global(), 0); }

  /// True when a dump header describes this rank's subregion of `d`
  /// (dimension, window); the z components stay zero in 2D headers.
  template <typename CheckpointInfoT>
  static bool box_matches(const CheckpointInfoT& info, const Box& b) {
    return info.dim == 2 && info.box[0] == b.x0 && info.box[1] == b.y0 &&
           info.box[3] == b.x1 && info.box[4] == b.y1;
  }
};

template <>
struct DomainTraits<3> : DomainTraitsBase<3> {
  static constexpr long kSyncEpochBase = 1L << 20;  // disjoint from 2D

  using Field = PaddedField3D<double>;

  static std::vector<Phase> make_schedule(Method method) {
    return make_schedule3d(method);
  }

  static void run_compute(Domain& d, ComputeKind kind,
                          ComputePass pass = ComputePass::kFull) {
    run_compute3d(d, kind, pass);
  }

  static std::vector<FieldId> macro_fields() {
    return {FieldId::kRho, FieldId::kVx, FieldId::kVy, FieldId::kVz};
  }

  static void set_equilibrium(Domain& d) { lbm3d::set_equilibrium_both(d); }

  static double quiescent(FieldId id, const FluidParams& p) {
    if (id == FieldId::kRho) return p.rho0;
    if (is_population(id))
      return lbm3d::equilibrium(population_index(id), p.rho0, 0.0, 0.0, 0.0);
    return 0.0;
  }

  /// Wrap axis by axis; each later axis copies whole slabs including the
  /// padding already filled by the earlier axes, which completes edges and
  /// corners.
  static void fill_periodic(const Domain& d, Field& u) {
    const FluidParams& p = d.params();
    const int g = d.ghost();
    const int nx = d.nx();
    const int ny = d.ny();
    const int nz = d.nz();
    if (p.periodic_x) {
      for (int z = 0; z < nz; ++z)
        for (int y = 0; y < ny; ++y)
          for (int k = 1; k <= g; ++k) {
            u(-k, y, z) = u(nx - k, y, z);
            u(nx - 1 + k, y, z) = u(k - 1, y, z);
          }
    }
    if (p.periodic_y) {
      for (int z = 0; z < nz; ++z)
        for (int k = 1; k <= g; ++k)
          for (int x = -g; x < nx + g; ++x) {
            u(x, -k, z) = u(x, ny - k, z);
            u(x, ny - 1 + k, z) = u(x, k - 1, z);
          }
    }
    if (p.periodic_z) {
      for (int k = 1; k <= g; ++k)
        for (int y = -g; y < ny + g; ++y)
          for (int x = -g; x < nx + g; ++x) {
            u(x, y, -k) = u(x, y, nz - k);
            u(x, y, nz - 1 + k) = u(x, y, k - 1);
          }
    }
  }

  static void copy_interior(Field& out, const Domain& dom, FieldId id,
                            const Box& b) {
    const Field& u = dom.field(id);
    for (int z = 0; z < b.depth(); ++z)
      for (int y = 0; y < b.height(); ++y)
        for (int x = 0; x < b.width(); ++x)
          out(b.x0 + x, b.y0 + y, b.z0 + z) = u(x, y, z);
  }

  static Field make_global_field(const Decomp& d) { return Field(d.global(), 0); }

  template <typename CheckpointInfoT>
  static bool box_matches(const CheckpointInfoT& info, const Box& b) {
    return info.dim == 3 && info.box[0] == b.x0 && info.box[1] == b.y0 &&
           info.box[2] == b.z0 && info.box[3] == b.x1 &&
           info.box[4] == b.y1 && info.box[5] == b.z1;
  }
};

}  // namespace subsonic
