// The dimension axis of the runtime, factored into one traits template.
// The paper's runtime design — subregion processes, ghost exchange, near-
// synchronization, staggered saving (sections 3-4) — is dimension-
// independent; only the concrete grid types are not.  DomainTraits<Dim>
// names those types and the calls the serial, threaded-parallel and
// supervised-process drivers make, so each driver is written once as a
// template and instantiated for 2D and 3D.  Every member is written once
// over Domain<Dim>, the generic block layer (BlockDecomposition,
// make_link_plans, pack_into/unpack_from) and the schedule.
#pragma once

#include <array>
#include <cstring>
#include <vector>

#include "src/decomp/block_decomposition.hpp"
#include "src/decomp/decomposition.hpp"
#include "src/geometry/grid_types.hpp"
#include "src/runtime/exchange.hpp"
#include "src/solver/domain.hpp"
#include "src/solver/lattice.hpp"
#include "src/solver/lbm.hpp"
#include "src/solver/schedule.hpp"
#include "src/util/check.hpp"

namespace subsonic {

template <int Dim>
struct DomainTraits : GridTypes<Dim> {
  static constexpr int kDims = Dim;
  /// Base of the reinitialize sync-epoch counter; the 2D and 3D bases are
  /// disjoint so sync tags can never collide on a shared transport.
  static constexpr long kSyncEpochBase = Dim == 2 ? 0 : 1L << 20;

  using Mask = subsonic::Mask<Dim>;
  using Decomp = Decomposition<Dim>;
  using typename GridTypes<Dim>::Box;
  using Domain = subsonic::Domain<Dim>;
  using Field = typename Domain::Field;
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

  static std::vector<Phase> make_schedule(Method method) {
    return subsonic::make_schedule<Dim>(method);
  }

  static void run_compute(Domain& d, ComputeKind kind,
                          ComputePass pass = ComputePass::kFull) {
    subsonic::run_compute(d, kind, pass);
  }

  static std::vector<FieldId> macro_fields() { return Domain::macro_fields(); }

  static void set_equilibrium(Domain& d) { lbm::set_equilibrium_both(d); }

  /// Value an inactive (all-solid) subregion contributes to a gather —
  /// what the serial boundary pass holds at wall nodes.
  static double quiescent(FieldId id, const FluidParams& p) {
    if (id == FieldId::kRho) return p.rho0;
    if (is_population(id))
      return Lattice<Dim>::equilibrium(population_index(id), p.rho0,
                                       std::array<double, Dim>{});
    return 0.0;
  }

  /// Periodic wrap of one field's ghost layers (serial runs; no-op without
  /// periodicity), axis by axis.  Axis a copies over the padded range of
  /// the axes before it and the interior range of the axes after it, so
  /// each later axis completes the edges and corners the earlier ones
  /// filled.  Each pencil of a face wraps all its layers, low and high,
  /// in one visit, layer by layer.
  static void fill_periodic(const Domain& d, Field& u) {
    const Periodicity periodic = periodic_axes(d.params());
    const int g = d.ghost();
    std::array<int, 3> n{1, 1, 1};
    for (int a = 0; a < Dim; ++a) n[a] = extents_of(d.box()).sizes()[a];
    const std::size_t row_bytes = sizeof(double) * (n[0] + 2 * g);
    for (int a = 0; a < Dim; ++a) {
      if (!periodic[a]) continue;
      // The face's pencils (y, z): padded on the pencil axes before a,
      // interior on those after it, and at 0 on a itself.
      std::array<int, 3> lo{0, 0, 0}, hi = n;
      for (int b = 1; b < a; ++b) {
        lo[b] = -g;
        hi[b] = n[b] + g;
      }
      hi[a] = 1;
      for (int z = lo[2]; z < hi[2]; ++z)
        for (int y = lo[1]; y < hi[1]; ++y) {
          if (a == 0) {  // x: the layers lie inside the pencil
            double* r = u.pencil(y, z);
            for (int k = 1; k <= g; ++k) {
              r[-k] = r[n[0] - k];
              r[n[0] - 1 + k] = r[k - 1];
            }
            continue;
          }
          // y or z: each layer is a whole pencil over the padded x range.
          const auto at = [&, y, z](int c) {
            return u.pencil(y + (a == 1 ? c : 0), z + (a == 2 ? c : 0)) - g;
          };
          for (int k = 1; k <= g; ++k) {
            std::memcpy(at(-k), at(n[a] - k), row_bytes);
            std::memcpy(at(n[a] - 1 + k), at(k - 1), row_bytes);
          }
        }
    }
  }

  /// Copies the interior of `dom`'s field `id` into the global-coordinate
  /// window `b` of `out` (the per-rank half of a gather).
  static void copy_interior(Field& out, const Domain& dom, FieldId id,
                            const Box& b) {
    copy_field_box(dom.field(id), full_box(extents_of(b)), out, b);
  }

  static Field make_global_field(const Decomp& d) {
    return Field(d.global(), 0);
  }
};

}  // namespace subsonic
