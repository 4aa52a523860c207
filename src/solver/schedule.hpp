// The per-step schedule of a numerical method: an alternating sequence of
// local compute phases and boundary exchanges (paper sections 3-4 and 6).
// The runtime executes the same schedule serially (periodic wrap only) or
// in parallel (messages to neighbour subregions):
//
//   FD: calc V | send/recv V | calc rho | send/recv rho | filter+BC
//   LB: relax+shift F        | send/recv F              | moments+filter+BC
//
// FD therefore sends two messages per neighbour per step, LB one — the
// difference the paper's efficiency measurements pick up (section 7).
// Each exchange also names the compute phase that hides it under the
// overlap schedule: FD's velocity and density updates hide their own
// exchanges, LB's population exchange hides behind the moments.
#pragma once

#include <vector>

#include "src/solver/domain.hpp"
#include "src/solver/field_id.hpp"
#include "src/solver/pass.hpp"

namespace subsonic {

enum class ComputeKind {
  kFdVelocity,
  kFdDensity,
  kLbCollideStream,
  kLbMoments,
  kFilterAndBc,
};

struct Phase {
  enum class Kind { kCompute, kExchange };
  /// The compute phase next to an exchange that runs its kInterior pass
  /// while the exchange is in flight under Scheduling::kOverlap: the
  /// producer (the phase before the exchange) computes its band first so
  /// the frames can leave; the consumer (the phase after it) computes its
  /// ghost-ring band last, once the frames have arrived.
  enum class HiddenBy { kProducer, kConsumer };
  Kind kind;
  ComputeKind compute{};        // when kind == kCompute
  std::vector<FieldId> fields;  // when kind == kExchange
  HiddenBy hidden_by = HiddenBy::kProducer;  // when kind == kExchange

  static Phase make_compute(ComputeKind c) {
    return Phase{Kind::kCompute, c, {}};
  }
  static Phase make_exchange(std::vector<FieldId> f, HiddenBy h) {
    return Phase{Kind::kExchange, {}, std::move(f), h};
  }
};

/// The Dim-dimensional schedule for `method`.  Identical for serial and
/// parallel runs; only the meaning of the exchange phases differs.  FD
/// exchanges the domain's velocity fields, LB the lattice's populations
/// (9 for D2Q9, 15 for D3Q15).
template <int Dim>
std::vector<Phase> make_schedule(Method method);

/// Executes one compute phase on a subregion.  The FD updates split into
/// the band the neighbours need and the rest; LB moments split into the
/// interior and the ghost ring the population exchange fills; LB
/// collide+stream cannot split and runs whole in kBand (kInterior is
/// empty); filter+BC ignores the pass and always runs whole.  The block
/// runtime splits only the phase that hides an exchange
/// (Phase::hidden_by).
template <int Dim>
void run_compute(Domain<Dim>& d, ComputeKind kind,
                 ComputePass pass = ComputePass::kFull);

/// Messages per neighbour per integration step (paper section 6: FD 2,
/// LB 1).
constexpr int messages_per_step(Method m) {
  return m == Method::kFiniteDifference ? 2 : 1;
}

/// Double-precision variables communicated per boundary fluid node
/// (paper section 6: 3 for both methods in 2D; 4 for FD and 5 for LB in
/// 3D — the LB count being the populations that cross a subregion face of
/// the D3Q15 lattice).
constexpr int comm_doubles_per_node(Method m, int dims) {
  if (dims == 2) return 3;
  return m == Method::kFiniteDifference ? 4 : 5;
}

/// Telemetry phase-timer name for a compute phase: "compute.<kind>".
/// Every name shares the "compute." prefix the aggregator sums into
/// measured T_calc.
constexpr const char* compute_phase_name(ComputeKind kind) {
  switch (kind) {
    case ComputeKind::kFdVelocity: return "compute.fd_velocity";
    case ComputeKind::kFdDensity: return "compute.fd_density";
    case ComputeKind::kLbCollideStream: return "compute.lb_collide_stream";
    case ComputeKind::kLbMoments: return "compute.lb_moments";
    case ComputeKind::kFilterAndBc: return "compute.filter_bc";
  }
  return "compute.unknown";
}

}  // namespace subsonic
