#include "src/runtime/gather.hpp"

#include <vector>

#include "src/io/checkpoint.hpp"
#include "src/runtime/domain_traits.hpp"
#include "src/runtime/epoch_store.hpp"
#include "src/util/check.hpp"

namespace subsonic {

namespace {

/// Restores each active block's dump of the committed epoch into a
/// scratch subdomain and copies its interior into global fields; inactive
/// blocks contribute the quiescent state.  Dumps are owner-agnostic, so no
/// owner map is needed.  Returns the fields in Traits::macro_fields()
/// order.
template <int Dim>
std::pair<long, std::vector<typename DomainTraits<Dim>::Field>>
gather_impl(const typename DomainTraits<Dim>::Mask& mask,
            const FluidParams& params, Method method, const GridShape& grid,
            int block_side, const std::string& workdir) {
  using Traits = DomainTraits<Dim>;
  params.validate();
  const int ghost = required_ghost(method, params.filter_eps > 0.0);
  const typename Traits::BlockDecomp bd =
      Traits::make_block_decomposition(mask, grid, block_side, ghost, params);
  // Only a MANIFEST-committed epoch is guaranteed to have a durable,
  // CRC-clean dump of every active block; anything newer may be torn.
  const auto m = epoch::read_manifest(workdir);
  SUBSONIC_REQUIRE_MSG(m, "gather_fields: no committed epoch in " + workdir);

  const std::vector<FieldId> ids = Traits::macro_fields();
  std::vector<typename Traits::Field> fields;
  fields.reserve(ids.size());
  for (FieldId id : ids) {
    fields.push_back(Traits::make_global_field(bd.blocks()));
    fields.back().fill(Traits::quiescent(id, params));
  }

  for (int b = 0; b < bd.block_count(); ++b) {
    if (!bd.block_active(b)) continue;
    typename Traits::Domain sub(mask, bd.box(b), params, method, ghost);
    restore_domain(sub, epoch::block_dump_path(workdir, b, m->epoch));
    SUBSONIC_REQUIRE_MSG(
        sub.step() == m->step,
        "gather_fields: a dump disagrees with the MANIFEST on the step");
    for (size_t i = 0; i < ids.size(); ++i)
      Traits::copy_interior(fields[i], sub, ids[i], bd.box(b));
  }
  return {m->step, std::move(fields)};
}

}  // namespace

GatheredFields2D gather_fields2d_blocked(const Mask2D& mask,
                                         const FluidParams& params,
                                         Method method, int jx, int jy,
                                         int block_side,
                                         const std::string& workdir) {
  auto [step, fields] = gather_impl<2>(
      mask, params, method, GridShape{jx, jy, 1}, block_side, workdir);
  return GatheredFields2D{step, std::move(fields[0]), std::move(fields[1]),
                          std::move(fields[2])};
}

GatheredFields3D gather_fields3d_blocked(const Mask3D& mask,
                                         const FluidParams& params,
                                         Method method, int jx, int jy, int jz,
                                         int block_side,
                                         const std::string& workdir) {
  auto [step, fields] = gather_impl<3>(mask, params, method,
                                       GridShape{jx, jy, jz}, block_side,
                                       workdir);
  return GatheredFields3D{step, std::move(fields[0]), std::move(fields[1]),
                          std::move(fields[2]), std::move(fields[3])};
}

GatheredFields2D gather_fields2d(const Mask2D& mask,
                                 const FluidParams& params, Method method,
                                 int jx, int jy, const std::string& workdir) {
  return gather_fields2d_blocked(mask, params, method, jx, jy, 0, workdir);
}

GatheredFields3D gather_fields3d(const Mask3D& mask,
                                 const FluidParams& params, Method method,
                                 int jx, int jy, int jz,
                                 const std::string& workdir) {
  return gather_fields3d_blocked(mask, params, method, jx, jy, jz, 0,
                                 workdir);
}

}  // namespace subsonic
