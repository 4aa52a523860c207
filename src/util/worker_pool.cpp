#include "src/util/worker_pool.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "src/util/check.hpp"
#include "src/util/env_int.hpp"

namespace subsonic {

WorkerPool::WorkerPool(int threads) : thread_count_(threads) {
  SUBSONIC_REQUIRE(threads >= 1);
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int id = 1; id < threads; ++id)
    workers_.emplace_back([this, id] { worker_main(id); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::vector<int> WorkerPool::weighted_bounds(
    int lo, int hi, int threads,
    const std::function<long long(int)>& weight) {
  SUBSONIC_REQUIRE(threads >= 1 && lo <= hi);
  std::vector<int> bounds(static_cast<size_t>(threads) + 1, hi);
  bounds[0] = lo;
  long long total = 0;
  for (int i = lo; i < hi; ++i) total += weight(i) + 1;
  // Boundary t (1 <= t < threads) is the first index whose cumulative
  // weight reaches t shares of the total — the weighted analogue of
  // chunk_begin's `lo + n * t / threads`.  One forward pass places every
  // boundary: cum * threads crosses t * total in nondecreasing t order.
  long long cum = 0;
  int t = 1;
  for (int i = lo; i < hi && t < threads; ++i) {
    cum += weight(i) + 1;
    while (t < threads &&
           cum * threads >= total * static_cast<long long>(t))
      bounds[static_cast<size_t>(t++)] = i + 1;
  }
  return bounds;
}

void WorkerPool::run_chunk(int id) noexcept {
  int lo, hi;
  if (job_bounds_) {
    lo = job_bounds_[id];
    hi = job_bounds_[id + 1];
  } else {
    lo = chunk_begin(job_lo_, job_hi_, id, thread_count_);
    hi = chunk_begin(job_lo_, job_hi_, id + 1, thread_count_);
  }
  if (lo >= hi) return;
  try {
    (*job_)(lo, hi);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void WorkerPool::worker_main(int id) {
  long seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
    }
    // job_/job_lo_/job_hi_/job_bounds_ are stable for the whole epoch:
    // the caller only mutates them under the mutex after every chunk
    // reported done.
    run_chunk(id);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--outstanding_ == 0) done_cv_.notify_one();
    }
  }
}

void WorkerPool::dispatch(const std::function<void(int, int)>& fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    outstanding_ = thread_count_ - 1;
    ++epoch_;
  }
  start_cv_.notify_all();
  run_chunk(0);  // the caller is worker 0
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return outstanding_ == 0; });
  job_ = nullptr;
  job_bounds_ = nullptr;
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void WorkerPool::for_range(int lo, int hi,
                           const std::function<void(int, int)>& fn) {
  if (lo >= hi) return;
  if (thread_count_ == 1) {
    fn(lo, hi);
    return;
  }
  job_lo_ = lo;
  job_hi_ = hi;
  job_bounds_ = nullptr;
  dispatch(fn);
}

void WorkerPool::for_weighted(int lo, int hi,
                              const std::function<long long(int)>& weight,
                              const std::function<void(int, int)>& fn) {
  if (lo >= hi) return;
  if (thread_count_ == 1) {
    fn(lo, hi);
    return;
  }
  bounds_ = weighted_bounds(lo, hi, thread_count_, weight);
  job_lo_ = lo;
  job_hi_ = hi;
  job_bounds_ = bounds_.data();
  dispatch(fn);
}

int resolve_threads(int requested) {
  if (requested > kMaxThreads)
    throw std::invalid_argument("threads = " + std::to_string(requested) +
                                " is above the limit of " +
                                std::to_string(kMaxThreads));
  if (requested >= 1) return requested;
  return env_int("SUBSONIC_THREADS", 1, 1, kMaxThreads);
}

}  // namespace subsonic
