#include "src/solver/schedule.hpp"

#include "src/solver/bc.hpp"
#include "src/solver/fd.hpp"
#include "src/solver/filter.hpp"
#include "src/solver/lattice.hpp"
#include "src/solver/lbm.hpp"
#include "src/util/check.hpp"

namespace subsonic {

template <int Dim>
std::vector<Phase> make_schedule(Method method) {
  using P = Phase;
  if (method == Method::kFiniteDifference)
    return {P::make_compute(ComputeKind::kFdVelocity),
            P::make_exchange(Domain<Dim>::velocity_fields(),
                             P::HiddenBy::kProducer),
            P::make_compute(ComputeKind::kFdDensity),
            P::make_exchange({FieldId::kRho}, P::HiddenBy::kProducer),
            P::make_compute(ComputeKind::kFilterAndBc)};
  // 3D keeps two population slabs, so its sweep could split, but a band
  // pass over thin pencils costs about as much as the whole sweep: the
  // moments hide the exchange at no extra sweep (DESIGN.md 5b).
  return {P::make_compute(ComputeKind::kLbCollideStream),
          P::make_exchange(population_fields(Lattice<Dim>::kQ),
                           P::HiddenBy::kConsumer),
          P::make_compute(ComputeKind::kLbMoments),
          P::make_compute(ComputeKind::kFilterAndBc)};
}

template <int Dim>
void run_compute(Domain<Dim>& d, ComputeKind kind, ComputePass pass) {
  switch (kind) {
    case ComputeKind::kFdVelocity:
      fd::advance_velocity(d, pass);
      return;
    case ComputeKind::kFdDensity:
      fd::advance_density(d, pass);
      return;
    case ComputeKind::kLbCollideStream:
      lbm::collide_stream(d, pass);
      return;
    case ComputeKind::kLbMoments:
      lbm::moments(d, pass);
      return;
    case ComputeKind::kFilterAndBc:
      apply_filter(d);
      apply_bc(d);
      return;
  }
  SUBSONIC_CHECK(false);
}

template std::vector<Phase> make_schedule<2>(Method);
template std::vector<Phase> make_schedule<3>(Method);
template void run_compute(Domain<2>&, ComputeKind, ComputePass);
template void run_compute(Domain<3>&, ComputeKind, ComputePass);

}  // namespace subsonic
