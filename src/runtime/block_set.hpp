// One rank's share of an over-decomposed run: the list of blocks the
// owner map assigns to this rank, each a full Domain over its block box,
// stepped phase-synchronously.  The block is the unit of work and the
// rank the unit of messages.  Under the overlap schedule each exchange is
// the boundary-first pattern lifted from one subregion to a block list —
//
//   for every block:     compute what the neighbours need (the producer's
//                        band; the whole producer when the consumer hides
//                        the exchange, as LB's moments do)
//   for every peer rank: pack every face bound for it into one frame, send
//   for every block:     compute the interior of the phase that hides the
//                        exchange (Phase::hidden_by)
//   for every face between two blocks of this rank:
//                        copy the neighbour's send box into the recv box
//   for every peer rank: receive its frame, check its length, unpack
//   for every block:     compute the consumer's ghost-ring band, when the
//                        consumer hides the exchange
//
// A frame is the concatenation of the per-link pack payloads, one segment
// per cross-rank link, in ascending (sending block id, sending direction)
// order, tagged make_tag(step, phase, 0).  The receiver resolves the same
// order and every segment's length (recv_box.count() x fields) from its
// own link plans at construction, so no index travels and the doubles on
// the wire are exactly the per-link payloads; a frame of any other length
// is rejected before a segment is read.  A face between two blocks of
// this rank never leaves it.  Copying it at receive time rather than at
// the post is safe because every sent value is complete before any post,
// and the in-flight interior pass writes no exchanged cell: neither a
// band cell nor padding of the producer, and no population at all in
// LB's moments.  At
// block side 0 a rank's one block is its whole subregion, so a frame
// holds the faces two subregions share, and only faces a rank shares
// with itself across a periodic axis are copied.  Kernels are untouched
// and see exactly the ghost data the serial driver would supply, which is
// what makes every block layout bitwise equal to the serial run (tested).
// Compute time is charged per block ("compute.block_<id>"), giving the
// rebalancer the per-block T_calc it feeds on.
#pragma once

#include <cstdint>
#include <functional>
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
  using Box = typename Traits::Box;
  using LinkPlan = typename Traits::LinkPlan;

  /// Inter-rank hooks: send(dst_rank, tag, frame) and
  /// recv(src_rank, tag) -> frame, typically bound to a Transport or a
  /// TcpEndpoint.  Invoked once per peer rank and exchange phase, never
  /// for this rank itself.
  using SendFn =
      std::function<void(int, MessageTag, std::vector<double>)>;
  using RecvFn = std::function<std::vector<double>(int, MessageTag)>;

  /// Builds one Domain per block `bd` assigns to `rank` (ascending block
  /// id) and resolves its exchange: the faces of each peer rank's frames
  /// and the intra-rank copies.  `tel` must outlive the set; per-block
  /// compute spans and the rank's step counter are charged into it.
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
  /// One segment of a frame: link `link` of local block `local`.
  struct Face {
    int local = -1;
    int link = -1;
  };
  /// The traffic with one peer rank: the faces this rank packs and the
  /// faces it unpacks, each in frame order, and their cell count — the
  /// same both ways, as every link's send and recv boxes are.
  struct PeerFrames {
    int rank = -1;
    std::vector<Face> sends;
    std::vector<Face> recvs;
    std::int64_t cells = 0;
  };
  /// A face between two blocks of this rank: local block `dst`'s recv box
  /// is filled from local block `src`'s send box.
  struct LocalCopy {
    int src = -1;
    Box src_box;
    int dst = -1;
    Box dst_box;
  };

  void resolve_exchange();
  void post_sends(const std::vector<FieldId>& fields, long step, int phase,
                  const SendFn& send);
  void complete_recvs(const std::vector<FieldId>& fields, long step,
                      int phase, const RecvFn& recv);

  BlockDecomp bd_;
  FluidParams params_;
  Method method_;
  int rank_ = -1;
  int ghost_ = 1;
  std::vector<Phase> schedule_;
  std::vector<int> ids_;
  std::vector<LocalBlock> locals_;
  std::vector<PeerFrames> peers_;  ///< ascending peer rank
  std::vector<LocalCopy> copies_;
  telemetry::Session* tel_ = nullptr;
};

extern template class BlockSet<2>;
extern template class BlockSet<3>;

}  // namespace subsonic
