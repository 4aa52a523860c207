// The dimension axis of the runtime, factored into one traits class.  The
// paper's runtime design — subregion processes, ghost exchange, near-
// synchronization, staggered saving (sections 3-4) — is dimension-
// independent; only the concrete grid types are not.  DomainTraits<Dim>
// collects exactly those concrete pieces (domain/mask/decomposition/link
// types, pack/unpack, schedule, periodic wraps, quiescent defaults), so
// the serial, threaded-parallel and supervised-process drivers can each be
// written once as a template and instantiated for 2D and 3D.
#pragma once

#include <vector>

#include "src/decomp/block_decomposition.hpp"
#include "src/decomp/decomposition.hpp"
#include "src/geometry/mask.hpp"
#include "src/runtime/exchange2d.hpp"
#include "src/runtime/exchange3d.hpp"
#include "src/solver/domain2d.hpp"
#include "src/solver/domain3d.hpp"
#include "src/solver/lbm2d.hpp"
#include "src/solver/lbm3d.hpp"
#include "src/solver/schedule.hpp"
#include "src/util/check.hpp"

namespace subsonic {

/// Subregion grid of a decomposition, dimension-agnostic: the 2D runtimes
/// require jz == 1 (the paper's (J x K) decompositions; (J x K x L) in 3D).
struct GridShape {
  int jx = 1;
  int jy = 1;
  int jz = 1;
};

template <int Dim>
struct DomainTraits;

template <>
struct DomainTraits<2> {
  static constexpr int kDims = 2;
  /// Base of the reinitialize sync-epoch counter; the 2D and 3D bases are
  /// disjoint so sync tags can never collide on a shared transport.
  static constexpr long kSyncEpochBase = 0;

  using Mask = Mask2D;
  using Domain = Domain2D;
  using Decomp = Decomposition2D;
  using BlockDecomp = BlockDecomposition2D;
  using Box = Box2;
  using LinkPlan = LinkPlan2D;
  using Field = PaddedField2D<double>;

  static Decomp make_decomposition(const Mask& mask, const GridShape& grid) {
    SUBSONIC_REQUIRE_MSG(grid.jz == 1, "2D decomposition requires jz == 1");
    return Decomp(mask.extents(), grid.jx, grid.jy);
  }

  /// Over-decomposition of the same grid into ~side^2 blocks seeded onto
  /// the (jx x jy) rank grid; `side` resolves through resolve_block_side
  /// (0: one block per rank) and `ghost` bounds the smallest legal block.
  static BlockDecomp make_block_decomposition(const Mask& mask,
                                              const GridShape& grid, int side,
                                              int ghost) {
    SUBSONIC_REQUIRE_MSG(grid.jz == 1, "2D decomposition requires jz == 1");
    return BlockDecomp(mask, grid.jx, grid.jy, resolve_block_side(side),
                       ghost);
  }

  /// Link plans of one *block* over the fine block grid — the generic
  /// make_link_plans with "rank" read as "block id"; neighbours that are
  /// all-solid blocks are dropped exactly like inactive ranks.
  static std::vector<LinkPlan> make_block_links(const BlockDecomp& bd,
                                                int block, int ghost,
                                                const FluidParams& p) {
    return make_link_plans2d(bd.blocks(), block, ghost, p.periodic_x,
                             p.periodic_y, bd.active());
  }

  static std::vector<Phase> make_schedule(Method method) {
    return make_schedule2d(method);
  }

  static std::vector<LinkPlan> make_links(const Decomp& d, int rank,
                                          int ghost, const FluidParams& p,
                                          const std::vector<bool>& active) {
    return make_link_plans2d(d, rank, ghost, p.periodic_x, p.periodic_y,
                             active);
  }

  static std::vector<double> pack(const Domain& dom,
                                  const std::vector<FieldId>& fields,
                                  Box box) {
    return pack2d(dom, fields, box);
  }

  static void unpack(Domain& dom, const std::vector<FieldId>& fields,
                     Box box, const std::vector<double>& payload) {
    unpack2d(dom, fields, box, payload);
  }

  /// pack/unpack over caller storage (one segment of a rank frame), and
  /// the direct block-to-block copy of an intra-rank face.
  static double* pack_into(const Domain& dom,
                           const std::vector<FieldId>& fields, Box box,
                           double* out) {
    return pack2d_into(dom, fields, box, out);
  }

  static const double* unpack_from(Domain& dom,
                                   const std::vector<FieldId>& fields,
                                   Box box, const double* in) {
    return unpack2d_from(dom, fields, box, in);
  }

  static void copy(const Domain& src, Box src_box, Domain& dst, Box dst_box,
                   const std::vector<FieldId>& fields) {
    copy2d(src, src_box, dst, dst_box, fields);
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

  static bool thinner_than_ghost(const Box& b, int ghost) {
    return b.width() < ghost || b.height() < ghost;
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
struct DomainTraits<3> {
  static constexpr int kDims = 3;
  static constexpr long kSyncEpochBase = 1L << 20;  // disjoint from 2D

  using Mask = Mask3D;
  using Domain = Domain3D;
  using Decomp = Decomposition3D;
  using BlockDecomp = BlockDecomposition3D;
  using Box = Box3;
  using LinkPlan = LinkPlan3D;
  using Field = PaddedField3D<double>;

  static Decomp make_decomposition(const Mask& mask, const GridShape& grid) {
    return Decomp(mask.extents(), grid.jx, grid.jy, grid.jz);
  }

  static BlockDecomp make_block_decomposition(const Mask& mask,
                                              const GridShape& grid, int side,
                                              int ghost) {
    return BlockDecomp(mask, grid.jx, grid.jy, grid.jz,
                       resolve_block_side(side), ghost);
  }

  static std::vector<LinkPlan> make_block_links(const BlockDecomp& bd,
                                                int block, int ghost,
                                                const FluidParams& p) {
    return make_link_plans3d(bd.blocks(), block, ghost, p.periodic_x,
                             p.periodic_y, p.periodic_z, bd.active());
  }

  static std::vector<Phase> make_schedule(Method method) {
    return make_schedule3d(method);
  }

  static std::vector<LinkPlan> make_links(const Decomp& d, int rank,
                                          int ghost, const FluidParams& p,
                                          const std::vector<bool>& active) {
    return make_link_plans3d(d, rank, ghost, p.periodic_x, p.periodic_y,
                             p.periodic_z, active);
  }

  static std::vector<double> pack(const Domain& dom,
                                  const std::vector<FieldId>& fields,
                                  Box box) {
    return pack3d(dom, fields, box);
  }

  static void unpack(Domain& dom, const std::vector<FieldId>& fields,
                     Box box, const std::vector<double>& payload) {
    unpack3d(dom, fields, box, payload);
  }

  static double* pack_into(const Domain& dom,
                           const std::vector<FieldId>& fields, Box box,
                           double* out) {
    return pack3d_into(dom, fields, box, out);
  }

  static const double* unpack_from(Domain& dom,
                                   const std::vector<FieldId>& fields,
                                   Box box, const double* in) {
    return unpack3d_from(dom, fields, box, in);
  }

  static void copy(const Domain& src, Box src_box, Domain& dst, Box dst_box,
                   const std::vector<FieldId>& fields) {
    copy3d(src, src_box, dst, dst_box, fields);
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

  static bool thinner_than_ghost(const Box& b, int ghost) {
    return b.width() < ghost || b.height() < ghost || b.depth() < ghost;
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
