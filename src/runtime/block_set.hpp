// One rank's share of an over-decomposed run: the list of blocks the
// owner map assigns to this rank, each a full Domain over its block box,
// stepped phase-synchronously.  The per-step structure is the familiar
// overlap pattern lifted from one subregion to a block list —
//
//   for every block: compute the boundary band
//   for every block: post the band messages (intra-rank: a local mailbox
//                    handoff; inter-rank: the caller's send hook)
//   for every block: compute the interior
//   for every block: complete the receives
//
// — so a neighbouring block on the same rank is served by a memcpy-cheap
// mailbox entry while a block on another rank flows through the
// transport, multiplexed on the rank-pair channel by make_block_tag.  At
// block side 0 a rank's one block is its whole subregion, so only faces a
// rank shares with itself across a periodic axis use the mailbox.
// Kernels are untouched and see exactly the ghost data the serial driver
// would supply, which is what makes every block layout bitwise equal to
// the serial run (tested).  Compute time is charged per block
// ("compute.block_<id>"), giving the rebalancer the per-block T_calc it
// feeds on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/transport.hpp"
#include "src/runtime/domain_traits.hpp"
#include "src/telemetry/telemetry.hpp"

namespace subsonic {

template <int Dim>
class BlockSet {
 public:
  using Traits = DomainTraits<Dim>;
  using Mask = typename Traits::Mask;
  using Domain = typename Traits::Domain;
  using BlockDecomp = typename Traits::BlockDecomp;
  using LinkPlan = typename Traits::LinkPlan;

  /// Inter-rank hooks: send(dst_rank, tag, payload) and
  /// recv(src_rank, tag) -> payload, typically bound to a Transport or a
  /// TcpEndpoint.  Never invoked for intra-rank block pairs.
  using SendFn =
      std::function<void(int, MessageTag, std::vector<double>)>;
  using RecvFn = std::function<std::vector<double>(int, MessageTag)>;

  /// Builds one Domain per block `bd` assigns to `rank` (ascending block
  /// id).  `tel` must outlive the set; per-block compute spans and the
  /// rank's step counter are charged into it.
  BlockSet(const Mask& mask, const FluidParams& params, Method method,
           const BlockDecomp& bd, int rank, int threads,
           telemetry::Session* tel);

  int rank() const { return rank_; }
  int ghost() const { return ghost_; }
  const BlockDecomp& blocks() const { return bd_; }

  int local_count() const { return static_cast<int>(locals_.size()); }
  /// Global block ids of this rank, ascending.
  const std::vector<int>& block_ids() const { return ids_; }
  Domain& domain(int local_index) { return *locals_[local_index].domain; }
  const Domain& domain(int local_index) const {
    return *locals_[local_index].domain;
  }
  /// Domain of global block `block` (must be owned by this rank).
  Domain& domain_of_block(int block);

  /// Common step counter of every local block.
  long step() const;

  /// One integration step of every local block.  `slow_permille` > 0
  /// injects the slow-host fault: each compute phase is followed by a
  /// busy-spin of elapsed * permille / 1000, charged into the same
  /// per-block compute timer so the telemetry sees the slow rank exactly
  /// as it would see a genuinely slow CPU.
  void step_once(Scheduling sched, const SendFn& send, const RecvFn& recv,
                 int slow_permille = 0);

  /// Full-state ghost synchronization of every field (the blocked
  /// reinitialize / cohort-entry handshake); `sync_step` is the tag's step
  /// component and must agree across ranks.
  void sync_all_fields(long sync_step, const SendFn& send,
                       const RecvFn& recv);

 private:
  struct LocalBlock {
    int id = -1;
    std::unique_ptr<Domain> domain;
    std::vector<LinkPlan> links;  ///< peer = neighbouring *block* id
    std::string compute_timer;    ///< "compute.block_<id>"
  };

  void post_sends(LocalBlock& b, const std::vector<FieldId>& fields,
                  long step, int phase, const SendFn& send);
  void complete_recvs(LocalBlock& b, const std::vector<FieldId>& fields,
                      long step, int phase, const RecvFn& recv);

  BlockDecomp bd_;
  FluidParams params_;
  Method method_;
  int rank_ = -1;
  int ghost_ = 1;
  std::vector<Phase> schedule_;
  std::vector<int> ids_;
  std::vector<LocalBlock> locals_;
  /// Intra-rank mailbox, keyed by the sender's full block tag.  Sends of a
  /// phase always precede its receives, so a lookup never misses.
  std::map<MessageTag, std::vector<double>> mailbox_;
  telemetry::Session* tel_ = nullptr;
};

extern template class BlockSet<2>;
extern template class BlockSet<3>;

}  // namespace subsonic
