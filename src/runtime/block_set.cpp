#include "src/runtime/block_set.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>

#include "src/util/check.hpp"
#include "src/util/fault_plan.hpp"

namespace subsonic {

namespace {
/// Phase index of the full-state synchronization: the largest the tag's
/// phase field holds, above every schedule phase.
constexpr int kSyncPhase = 1023;

/// Tag of the one frame a rank sends each peer rank in a phase.
constexpr MessageTag frame_tag(long step, int phase) {
  return make_tag(step, phase, 0);
}

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
  resolve_exchange();
}

template <int Dim>
void BlockSet<Dim>::resolve_exchange() {
  auto local_of = [this](int block) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), block);
    SUBSONIC_CHECK(it != ids_.end() && *it == block);
    return static_cast<int>(it - ids_.begin());
  };
  std::map<int, PeerFrames> by_rank;
  for (int i = 0; i < local_count(); ++i) {
    const std::vector<LinkPlan>& links = locals_[i].links;
    for (int l = 0; l < static_cast<int>(links.size()); ++l) {
      const LinkPlan& link = links[l];
      const int owner = bd_.owner(link.peer);
      if (owner == rank_) {
        // The neighbour's side of this face: its link back along peer_dir.
        const int src = local_of(link.peer);
        const std::vector<LinkPlan>& back = locals_[src].links;
        const auto it = std::find_if(
            back.begin(), back.end(),
            [&](const LinkPlan& k) { return k.dir == link.peer_dir; });
        SUBSONIC_CHECK(it != back.end() && it->peer == locals_[i].id);
        copies_.push_back({src, it->send_box, i, link.recv_box});
        continue;
      }
      PeerFrames& p = by_rank[owner];
      p.rank = owner;
      p.sends.push_back({i, l});
      p.recvs.push_back({i, l});
      p.cells += link.recv_box.count();
    }
  }
  // Both ends order a frame by (sending block id, sending direction): the
  // sender reads it off its own links, the receiver off each link's peer.
  auto sent_as = [this](const Face& f) {
    return std::make_pair(locals_[f.local].id,
                          locals_[f.local].links[f.link].dir);
  };
  auto received_as = [this](const Face& f) {
    const LinkPlan& link = locals_[f.local].links[f.link];
    return std::make_pair(link.peer, link.peer_dir);
  };
  for (auto& [r, p] : by_rank) {
    std::sort(p.sends.begin(), p.sends.end(),
              [&](const Face& a, const Face& b) {
                return sent_as(a) < sent_as(b);
              });
    std::sort(p.recvs.begin(), p.recvs.end(),
              [&](const Face& a, const Face& b) {
                return received_as(a) < received_as(b);
              });
    peers_.push_back(std::move(p));
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
void BlockSet<Dim>::post_sends(const std::vector<FieldId>& fields, long step,
                               int phase, const SendFn& send) {
  for (const PeerFrames& p : peers_) {
    std::vector<double> frame(static_cast<size_t>(p.cells) * fields.size());
    double* out = frame.data();
    for (const Face& f : p.sends) {
      const LocalBlock& b = locals_[f.local];
      out = pack_into(*b.domain, fields, b.links[f.link].send_box, out);
    }
    send(p.rank, frame_tag(step, phase), std::move(frame));
  }
}

template <int Dim>
void BlockSet<Dim>::complete_recvs(const std::vector<FieldId>& fields,
                                   long step, int phase, const RecvFn& recv) {
  // Faces between this rank's own blocks first: they wait for nothing.
  for (const LocalCopy& c : copies_)
    copy_box(*locals_[c.src].domain, c.src_box, *locals_[c.dst].domain,
             c.dst_box, fields);
  for (const PeerFrames& p : peers_) {
    const std::vector<double> frame = recv(p.rank, frame_tag(step, phase));
    // The frame came from another rank, possibly another process: check
    // its length before any segment is read.
    const size_t expected = static_cast<size_t>(p.cells) * fields.size();
    SUBSONIC_REQUIRE_MSG(
        frame.size() == expected,
        "frame from rank " + std::to_string(p.rank) + " at step " +
            std::to_string(step) + ", phase " + std::to_string(phase) +
            ": expected " + std::to_string(expected) + " doubles, received " +
            std::to_string(frame.size()));
    const double* in = frame.data();
    for (const Face& f : p.recvs) {
      LocalBlock& b = locals_[f.local];
      in = unpack_from(*b.domain, fields, b.links[f.link].recv_box, in);
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

  auto compute_all = [&](ComputeKind kind, ComputePass pass) {
    for (LocalBlock& b : locals_) compute_block(b, kind, pass);
  };

  for (size_t i = 0; i < schedule_.size(); ++i) {
    const Phase& phase = schedule_[i];
    const bool overlap = sched == Scheduling::kOverlap &&
                         phase.kind == Phase::Kind::kCompute &&
                         i + 1 < schedule_.size() &&
                         schedule_[i + 1].kind == Phase::Kind::kExchange;
    if (overlap) {
      // The exchange is posted once this phase has produced what the
      // neighbours need, and completed once the phase that hides it has
      // run its interior pass.  Hidden by its producer (FD): band, post,
      // interior, complete.  Hidden by its consumer (LB): the whole
      // producer, post, consumer interior, complete, consumer band.
      const Phase& ex = schedule_[i + 1];
      const int ex_index = static_cast<int>(i + 1);
      const bool by_producer = ex.hidden_by == Phase::HiddenBy::kProducer;
      SUBSONIC_CHECK(by_producer ||
                     (i + 2 < schedule_.size() &&
                      schedule_[i + 2].kind == Phase::Kind::kCompute));
      const ComputeKind hider =
          by_producer ? phase.compute : schedule_[i + 2].compute;
      compute_all(phase.compute,
                  by_producer ? ComputePass::kBand : ComputePass::kFull);
      {
        telemetry::ScopedSpan span(tel_, rank_, "comm.post_sends", "comm",
                                   step);
        post_sends(ex.fields, step, ex_index, send);
      }
      compute_all(hider, ComputePass::kInterior);
      {
        // The receive-completion wait is the exposed comm latency of an
        // overlapped exchange; it feeds the same histogram as an unsplit
        // exchange so percentiles exist under either schedule.
        telemetry::ScopedSpan span(tel_, rank_, "comm.complete_recvs", "comm",
                                   step);
        complete_recvs(ex.fields, step, ex_index, recv);
        tel_->metrics().histogram(rank_, "comm.exchange").record(span.stop());
      }
      if (!by_producer) compute_all(hider, ComputePass::kBand);
      i += by_producer ? 1 : 2;  // the phases folded into the overlap
    } else if (phase.kind == Phase::Kind::kCompute) {
      compute_all(phase.compute, ComputePass::kFull);
    } else {
      telemetry::ScopedSpan span(tel_, rank_, "comm.exchange", "comm", step);
      post_sends(phase.fields, step, static_cast<int>(i), send);
      complete_recvs(phase.fields, step, static_cast<int>(i), recv);
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
  post_sends(all_fields, sync_step, kSyncPhase, send);
  complete_recvs(all_fields, sync_step, kSyncPhase, recv);
}

template class BlockSet<2>;
template class BlockSet<3>;

}  // namespace subsonic
