#include "src/runtime/block_set.hpp"

#include <chrono>

#include "src/util/check.hpp"
#include "src/util/fault_plan.hpp"

namespace subsonic {

namespace {
/// Phase index of the full-state synchronization: the largest the tag's
/// phase field holds, above every schedule phase.
constexpr int kSyncPhase = 1023;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

template <int Dim>
BlockSet<Dim>::BlockSet(const Mask& mask, const FluidParams& params,
                        Method method, const BlockDecomp& bd, int rank,
                        int threads, telemetry::Session* tel)
    : bd_(bd),
      params_(params),
      method_(method),
      rank_(rank),
      ghost_(required_ghost(method, params.filter_eps > 0.0)),
      schedule_(Traits::make_schedule(method)),
      tel_(tel) {
  SUBSONIC_REQUIRE(tel_ != nullptr);
  SUBSONIC_REQUIRE(rank >= 0 && rank < bd_.rank_count());
  ids_ = bd_.blocks_of(rank);
  locals_.reserve(ids_.size());
  for (int b : ids_) {
    SUBSONIC_REQUIRE_MSG(
        !Traits::thinner_than_ghost(bd_.box(b), ghost_),
        "block thinner than the ghost width: its depth-g padding would "
        "need data from non-adjacent blocks");
    LocalBlock lb;
    lb.id = b;
    lb.domain = std::make_unique<Domain>(mask, bd_.box(b), params_, method_,
                                         ghost_, threads);
    lb.links = Traits::make_block_links(bd_, b, ghost_, params_);
    lb.compute_timer = "compute.block_" + std::to_string(b);
    locals_.push_back(std::move(lb));
  }
}

template <int Dim>
typename BlockSet<Dim>::Domain& BlockSet<Dim>::domain_of_block(int block) {
  for (LocalBlock& lb : locals_)
    if (lb.id == block) return *lb.domain;
  SUBSONIC_REQUIRE_MSG(false, "block is not owned by this rank");
  return *locals_.front().domain;  // unreachable
}

template <int Dim>
long BlockSet<Dim>::step() const {
  SUBSONIC_REQUIRE(!locals_.empty());
  const long s = locals_.front().domain->step();
  for (const LocalBlock& lb : locals_)
    SUBSONIC_CHECK(lb.domain->step() == s);
  return s;
}

template <int Dim>
void BlockSet<Dim>::post_sends(LocalBlock& b,
                               const std::vector<FieldId>& fields, long step,
                               int phase, const SendFn& send) {
  for (const LinkPlan& link : b.links) {
    const MessageTag tag = make_block_tag(step, phase, link.dir, b.id);
    auto payload = Traits::pack(*b.domain, fields, link.send_box);
    if (bd_.owner(link.peer) == rank_)
      mailbox_[tag] = std::move(payload);
    else
      send(bd_.owner(link.peer), tag, std::move(payload));
  }
}

template <int Dim>
void BlockSet<Dim>::complete_recvs(LocalBlock& b,
                                   const std::vector<FieldId>& fields,
                                   long step, int phase, const RecvFn& recv) {
  for (const LinkPlan& link : b.links) {
    // The tag exactly as the sending block composed it: its id, and this
    // link's direction as seen from its side.
    const MessageTag tag =
        make_block_tag(step, phase, link.peer_dir, link.peer);
    if (bd_.owner(link.peer) == rank_) {
      const auto it = mailbox_.find(tag);
      SUBSONIC_REQUIRE_MSG(it != mailbox_.end(),
                           "intra-rank block message missing: sends of a "
                           "phase must precede its receives");
      Traits::unpack(*b.domain, fields, link.recv_box, it->second);
      mailbox_.erase(it);
    } else {
      Traits::unpack(*b.domain, fields, link.recv_box,
                     recv(bd_.owner(link.peer), tag));
    }
  }
}

template <int Dim>
void BlockSet<Dim>::step_once(Scheduling sched, const SendFn& send,
                              const RecvFn& recv, int slow_permille) {
  SUBSONIC_REQUIRE(!locals_.empty());
  const long step = locals_.front().domain->step();

  // A compute pass over one block, charged to the block's own timer; the
  // injected slow-host spin runs *inside* the span so the per-block
  // T_calc the rebalancer consumes reflects the slowed rank faithfully.
  auto compute_block = [&](LocalBlock& b, ComputeKind kind,
                           ComputePass pass) {
    telemetry::ScopedSpan span(tel_, rank_, b.compute_timer.c_str(),
                               "compute", step);
    const auto t0 = std::chrono::steady_clock::now();
    Traits::run_compute(*b.domain, kind, pass);
    if (slow_permille > 0)
      spin_slow_penalty(seconds_since(t0), slow_permille);
    tel_->metrics().histogram(rank_, "compute.block").record(span.stop());
  };

  for (size_t i = 0; i < schedule_.size(); ++i) {
    const Phase& phase = schedule_[i];
    if (phase.kind == Phase::Kind::kCompute) {
      const bool split = sched == Scheduling::kOverlap &&
                         i + 1 < schedule_.size() &&
                         schedule_[i + 1].kind == Phase::Kind::kExchange;
      if (split) {
        const Phase& ex = schedule_[i + 1];
        const int ex_index = static_cast<int>(i + 1);
        for (LocalBlock& b : locals_)
          compute_block(b, phase.compute, ComputePass::kBand);
        {
          telemetry::ScopedSpan span(tel_, rank_, "comm.post_sends", "comm",
                                     step);
          for (LocalBlock& b : locals_)
            post_sends(b, ex.fields, step, ex_index, send);
        }
        for (LocalBlock& b : locals_)
          compute_block(b, phase.compute, ComputePass::kInterior);
        {
          // The receive-completion wait is the exposed comm latency of an
          // overlapped exchange; it feeds the same histogram as an unsplit
          // exchange so percentiles exist under either schedule.
          telemetry::ScopedSpan span(tel_, rank_, "comm.complete_recvs",
                                     "comm", step);
          for (LocalBlock& b : locals_)
            complete_recvs(b, ex.fields, step, ex_index, recv);
          tel_->metrics().histogram(rank_, "comm.exchange").record(span.stop());
        }
        ++i;  // the exchange phase was folded into the split
      } else {
        for (LocalBlock& b : locals_)
          compute_block(b, phase.compute, ComputePass::kFull);
      }
    } else {
      telemetry::ScopedSpan span(tel_, rank_, "comm.exchange", "comm", step);
      for (LocalBlock& b : locals_)
        post_sends(b, phase.fields, step, static_cast<int>(i), send);
      for (LocalBlock& b : locals_)
        complete_recvs(b, phase.fields, step, static_cast<int>(i), recv);
      tel_->metrics().histogram(rank_, "comm.exchange").record(span.stop());
    }
  }
  for (LocalBlock& b : locals_) b.domain->set_step(step + 1);
  tel_->metrics().counter(rank_, "steps").add();
}

template <int Dim>
void BlockSet<Dim>::sync_all_fields(long sync_step, const SendFn& send,
                                    const RecvFn& recv) {
  std::vector<FieldId> all_fields = Traits::macro_fields();
  if (method_ == Method::kLatticeBoltzmann && !locals_.empty()) {
    const int q = locals_.front().domain->q();
    for (int i = 0; i < q; ++i) all_fields.push_back(population(i));
  }
  for (LocalBlock& b : locals_)
    post_sends(b, all_fields, sync_step, kSyncPhase, send);
  for (LocalBlock& b : locals_)
    complete_recvs(b, all_fields, sync_step, kSyncPhase, recv);
}

template class BlockSet<2>;
template class BlockSet<3>;

}  // namespace subsonic
