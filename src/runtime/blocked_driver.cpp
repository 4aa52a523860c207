#include "src/runtime/blocked_driver.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "src/comm/in_memory_transport.hpp"
#include "src/io/checkpoint.hpp"
#include "src/util/check.hpp"

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
              required_ghost(method, params.filter_eps > 0.0)),
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
  if (sets_.empty()) return;
  if (sets_.size() == 1) {  // no threads needed
    fn(*sets_[0]);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(sets_.size());
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (auto& set : sets_) {
    threads.emplace_back([&fn, &set, &first_error, &error_mutex] {
      try {
        fn(*set);
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
  for_each_set([this, n](BlockSet<Dim>& set) {
    const int rank = set.rank();
    auto send = [this, rank](int dst, MessageTag tag,
                             std::vector<double> payload) {
      transport_->send(rank, dst, tag, std::move(payload));
    };
    auto recv = [this, rank](int src, MessageTag tag) {
      return transport_->recv(rank, src, tag);
    };
    for (int s = 0; s < n; ++s) set.step_once(sched_, send, recv);
  });
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
  // Block sync tags carry a nonzero block-id field, so this counter can
  // never collide with the monolithic drivers' sync tags even on a shared
  // transport; the 2D/3D bases stay disjoint as in ParallelDriver.
  static std::atomic<long> sync_epoch{Traits::kSyncEpochBase};
  const long epoch = sync_epoch.fetch_add(1);

  for_each_set([this, epoch](BlockSet<Dim>& set) {
    const int rank = set.rank();
    auto send = [this, rank](int dst, MessageTag tag,
                             std::vector<double> payload) {
      transport_->send(rank, dst, tag, std::move(payload));
    };
    auto recv = [this, rank](int src, MessageTag tag) {
      return transport_->recv(rank, src, tag);
    };
    set.sync_all_fields(epoch, send, recv);
  });
}

template <int Dim>
void BlockedDriver<Dim>::reinitialize() {
  for_each_set([this](BlockSet<Dim>& set) {
    if (method_ == Method::kLatticeBoltzmann)
      for (int i = 0; i < set.local_count(); ++i)
        Traits::set_equilibrium(set.domain(i));
  });
  sync_ghosts();
}

template <int Dim>
void BlockedDriver<Dim>::save_blocks(const std::string& dir) const {
  // One after the other in block order — the staggered, orderly saving
  // discipline of the monolithic checkpoint path.
  for (const auto& set : sets_)
    for (int i = 0; i < set->local_count(); ++i)
      save_domain(set->domain(i),
                  dir + "/block_" + std::to_string(set->block_ids()[i]) +
                      ".dump");
}

template <int Dim>
void BlockedDriver<Dim>::restore_blocks(const std::string& dir) {
  for (auto& set : sets_)
    for (int i = 0; i < set->local_count(); ++i)
      restore_domain(set->domain(i),
                     dir + "/block_" + std::to_string(set->block_ids()[i]) +
                         ".dump");
  // The restored interiors invalidate every neighbour's ghost copy;
  // refresh them (populations included) without re-seeding equilibria.
  sync_ghosts();
}

template class BlockedDriver<2>;
template class BlockedDriver<3>;

}  // namespace subsonic
