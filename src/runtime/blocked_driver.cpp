#include "src/runtime/blocked_driver.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "src/comm/in_memory_transport.hpp"
#include "src/io/checkpoint.hpp"
#include "src/runtime/epoch_store.hpp"
#include "src/telemetry/summary.hpp"
#include "src/util/check.hpp"
#include "src/util/log.hpp"

namespace subsonic {

template <int Dim>
BlockedDriver<Dim>::BlockedDriver(const Mask& mask, const FluidParams& params,
                                  Method method, const GridShape& grid,
                                  int block_side,
                                  std::shared_ptr<Transport> transport,
                                  Scheduling sched, int threads)
    : BlockedDriver(
          mask, params, method,
          Traits::make_block_decomposition(
              mask, grid, block_side,
              required_ghost(method, params.filter_eps > 0.0), params),
          std::move(transport), sched, threads) {}

template <int Dim>
BlockedDriver<Dim>::BlockedDriver(const Mask& mask, const FluidParams& params,
                                  Method method, const BlockDecomp& bd,
                                  std::shared_ptr<Transport> transport,
                                  Scheduling sched, int threads)
    : bd_(bd),
      params_(params),
      method_(method),
      ghost_(required_ghost(method, params.filter_eps > 0.0)),
      sched_(sched),
      transport_(std::move(transport)) {
  init(mask, threads);
}

template <int Dim>
void BlockedDriver<Dim>::init(const Mask& mask, int threads) {
  if (!transport_)
    transport_ = std::make_shared<InMemoryTransport>(bd_.rank_count());
  telemetry_ =
      std::make_unique<telemetry::Session>(telemetry::Session::from_env());
  transport_->attach_metrics(telemetry_->metrics_ptr());

  for (int r : bd_.active_ranks())
    sets_.push_back(std::make_unique<BlockSet<Dim>>(
        mask, params_, method_, bd_, r, threads, telemetry_.get()));

  reinitialize();
}

template <int Dim>
template <typename Fn>
void BlockedDriver<Dim>::for_each_set(Fn&& fn) {
  auto body = [this, &fn](BlockSet<Dim>& set) {
    const int rank = set.rank();
    const SendFn send = [this, rank](int dst, MessageTag tag,
                                     std::vector<double> payload) {
      transport_->send(rank, dst, tag, std::move(payload));
    };
    const RecvFn recv = [this, rank](int src, MessageTag tag) {
      return transport_->recv(rank, src, tag);
    };
    fn(set, send, recv);
    clear_log_context();
  };
  if (sets_.empty()) return;
  if (sets_.size() == 1) {  // no threads needed
    body(*sets_[0]);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(sets_.size());
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (auto& set : sets_) {
    threads.emplace_back([&body, &set, &first_error, &error_mutex] {
      try {
        body(*set);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

template <int Dim>
void BlockedDriver<Dim>::run(int n) {
  for_each_set([this, n](BlockSet<Dim>& set, const SendFn& send,
                         const RecvFn& recv) {
    for (int s = 0; s < n; ++s) {
      set_log_context(set.rank(), set.step());
      set.step_once(sched_, send, recv);
    }
  });
}

template <int Dim>
long BlockedDriver<Dim>::unsync_margin() const {
  bool own_subregions = bd_.block_count() == bd_.rank_count();
  for (int b = 0; own_subregions && b < bd_.block_count(); ++b)
    own_subregions = bd_.box(b) == bd_.ranks().box(b) &&
                     (bd_.owner(b) == b || !bd_.block_active(b));
  return own_subregions ? bd_.ranks().max_unsync(StencilShape::kFull)
                        : active_count() - 1;
}

template <int Dim>
int BlockedDriver<Dim>::run_until_sync(int max_steps,
                                       const std::atomic<bool>& request,
                                       SyncFile& sync_file) {
  SUBSONIC_REQUIRE(max_steps >= 1);
  const long start = sets_.empty() ? 0 : step();
  // A sync file left over from a crashed or aborted earlier round would
  // make the first announcer compute a stale agreed step and wedge the
  // group; clear it before anyone can announce.  Safe: ranks announce
  // only after `request` flips, which is observed strictly after entry.
  sync_file.clear();
  const long margin = unsync_margin();
  const int expected = active_count();

  for_each_set([&](BlockSet<Dim>& set, const SendFn& send,
                   const RecvFn& recv) {
    bool announced = false;
    long stop = start + max_steps;
    while (set.step() < stop) {
      if (request.load(std::memory_order_relaxed)) {
        if (!announced) {
          sync_file.announce(set.rank(), set.step());
          announced = true;
        }
        const long agreed = sync_file.sync_step(expected);
        if (agreed >= 0) stop = std::min(stop, agreed + margin);
        if (set.step() >= stop) break;
      }
      set_log_context(set.rank(), set.step());
      set.step_once(sched_, send, recv);
    }
  });

  // Everyone agreed on the same stop step; step() asserts it.
  return static_cast<int>((sets_.empty() ? start : step()) - start);
}

template <int Dim>
WorkerStats BlockedDriver<Dim>::stats(int rank) const {
  SUBSONIC_REQUIRE(rank >= 0 && rank < bd_.rank_count());
  SUBSONIC_REQUIRE_MSG(!bd_.blocks_of(rank).empty(), "rank owns no blocks");
  const telemetry::RankMetrics m =
      telemetry::collect_rank(telemetry_->metrics(), rank);
  return WorkerStats{m.t_calc(), m.t_com()};
}

template <int Dim>
long BlockedDriver<Dim>::step() const {
  SUBSONIC_REQUIRE(!sets_.empty());
  const long s = sets_[0]->step();
  for (const auto& set : sets_) SUBSONIC_CHECK(set->step() == s);
  return s;
}

template <int Dim>
typename BlockedDriver<Dim>::Domain& BlockedDriver<Dim>::block_domain(
    int block) {
  SUBSONIC_REQUIRE(block >= 0 && block < bd_.block_count());
  SUBSONIC_REQUIRE_MSG(bd_.block_active(block), "block is inactive");
  for (auto& set : sets_)
    if (set->rank() == bd_.owner(block)) return set->domain_of_block(block);
  SUBSONIC_REQUIRE_MSG(false, "owner rank has no block set");
  return sets_[0]->domain_of_block(block);  // unreachable
}

template <int Dim>
typename BlockedDriver<Dim>::Field BlockedDriver<Dim>::gather(
    FieldId id) const {
  Field out = Traits::make_global_field(bd_.blocks());
  out.fill(Traits::quiescent(id, params_));
  for (const auto& set : sets_)
    for (int i = 0; i < set->local_count(); ++i)
      Traits::copy_interior(out, set->domain(i), id,
                            bd_.box(set->block_ids()[i]));
  return out;
}

template <int Dim>
void BlockedDriver<Dim>::sync_ghosts() {
  // Per-instantiation static: the 2D and 3D counters start at disjoint
  // bases, so sync tags never collide on a transport shared across
  // dimensions.
  static std::atomic<long> sync_epoch{Traits::kSyncEpochBase};
  const long epoch = sync_epoch.fetch_add(1);

  for_each_set([epoch](BlockSet<Dim>& set, const SendFn& send,
                       const RecvFn& recv) {
    set.sync_all_fields(epoch, send, recv);
  });
}

template <int Dim>
void BlockedDriver<Dim>::reinitialize() {
  for_each_set([this](BlockSet<Dim>& set, const SendFn&, const RecvFn&) {
    if (method_ == Method::kLatticeBoltzmann)
      for (int i = 0; i < set.local_count(); ++i)
        Traits::set_equilibrium(set.domain(i));
  });
  sync_ghosts();
}

template <int Dim>
void BlockedDriver<Dim>::save_blocks(const std::string& dir) const {
  const auto last = epoch::read_manifest(dir);
  epoch::Manifest m{last ? last->epoch + 1 : 0, step(), {}};
  // One after the other, as the paper's processes stagger their saves to
  // avoid monopolizing the file server (section 5.2).
  for (const auto& set : sets_)
    for (int i = 0; i < set->local_count(); ++i) {
      const int b = set->block_ids()[i];
      save_domain(set->domain(i), epoch::block_dump_path(dir, b, m.epoch));
      m.blocks.push_back(b);
    }
  std::sort(m.blocks.begin(), m.blocks.end());
  epoch::commit(dir, m);
}

template <int Dim>
void BlockedDriver<Dim>::restore_blocks(const std::string& dir) {
  const auto m = epoch::read_manifest(dir);
  SUBSONIC_REQUIRE_MSG(m, "restore_blocks: no committed epoch in " + dir);
  for (auto& set : sets_)
    for (int i = 0; i < set->local_count(); ++i)
      restore_domain(set->domain(i),
                     epoch::block_dump_path(dir, set->block_ids()[i],
                                            m->epoch));
  // The restored interiors invalidate every neighbour's ghost copy;
  // refresh them (populations included) without re-seeding equilibria.
  sync_ghosts();
}

template class BlockedDriver<2>;
template class BlockedDriver<3>;

}  // namespace subsonic
