#include "src/solver/schedule.hpp"

#include "src/solver/bc2d.hpp"
#include "src/solver/bc3d.hpp"
#include "src/solver/fd2d.hpp"
#include "src/solver/fd3d.hpp"
#include "src/solver/filter.hpp"
#include "src/solver/lbm2d.hpp"
#include "src/solver/lbm3d.hpp"
#include "src/util/check.hpp"

namespace subsonic {

std::vector<Phase> make_schedule2d(Method method) {
  std::vector<Phase> s;
  if (method == Method::kFiniteDifference) {
    s.push_back(Phase::make_compute(ComputeKind::kFdVelocity));
    s.push_back(Phase::make_exchange({FieldId::kVx, FieldId::kVy},
                                     Phase::HiddenBy::kProducer));
    s.push_back(Phase::make_compute(ComputeKind::kFdDensity));
    s.push_back(
        Phase::make_exchange({FieldId::kRho}, Phase::HiddenBy::kProducer));
    s.push_back(Phase::make_compute(ComputeKind::kFilterAndBc));
  } else {
    s.push_back(Phase::make_compute(ComputeKind::kLbCollideStream));
    s.push_back(Phase::make_exchange(population_fields(lbm2d::kQ),
                                     Phase::HiddenBy::kConsumer));
    s.push_back(Phase::make_compute(ComputeKind::kLbMoments));
    s.push_back(Phase::make_compute(ComputeKind::kFilterAndBc));
  }
  return s;
}

std::vector<Phase> make_schedule3d(Method method) {
  std::vector<Phase> s;
  if (method == Method::kFiniteDifference) {
    s.push_back(Phase::make_compute(ComputeKind::kFdVelocity));
    s.push_back(
        Phase::make_exchange({FieldId::kVx, FieldId::kVy, FieldId::kVz},
                             Phase::HiddenBy::kProducer));
    s.push_back(Phase::make_compute(ComputeKind::kFdDensity));
    s.push_back(
        Phase::make_exchange({FieldId::kRho}, Phase::HiddenBy::kProducer));
    s.push_back(Phase::make_compute(ComputeKind::kFilterAndBc));
  } else {
    // 3D keeps two population slabs, so its sweep could split, but a band
    // pass over thin pencils costs about as much as the whole sweep: the
    // moments hide the exchange at no extra sweep (DESIGN.md 5b).
    s.push_back(Phase::make_compute(ComputeKind::kLbCollideStream));
    s.push_back(Phase::make_exchange(population_fields(lbm3d::kQ),
                                     Phase::HiddenBy::kConsumer));
    s.push_back(Phase::make_compute(ComputeKind::kLbMoments));
    s.push_back(Phase::make_compute(ComputeKind::kFilterAndBc));
  }
  return s;
}

void run_compute2d(Domain2D& d, ComputeKind kind, ComputePass pass) {
  switch (kind) {
    case ComputeKind::kFdVelocity:
      fd2d::advance_velocity(d, pass);
      return;
    case ComputeKind::kFdDensity:
      fd2d::advance_density(d, pass);
      return;
    case ComputeKind::kLbCollideStream:
      lbm2d::collide_stream(d, pass);
      return;
    case ComputeKind::kLbMoments:
      lbm2d::moments(d, pass);
      return;
    case ComputeKind::kFilterAndBc:
      filter2d(d);
      apply_bc2d(d);
      return;
  }
  SUBSONIC_CHECK(false);
}

void run_compute3d(Domain3D& d, ComputeKind kind, ComputePass pass) {
  switch (kind) {
    case ComputeKind::kFdVelocity:
      fd3d::advance_velocity(d, pass);
      return;
    case ComputeKind::kFdDensity:
      fd3d::advance_density(d, pass);
      return;
    case ComputeKind::kLbCollideStream:
      lbm3d::collide_stream(d, pass);
      return;
    case ComputeKind::kLbMoments:
      lbm3d::moments(d, pass);
      return;
    case ComputeKind::kFilterAndBc:
      filter3d(d);
      apply_bc3d(d);
      return;
  }
  SUBSONIC_CHECK(false);
}

}  // namespace subsonic
