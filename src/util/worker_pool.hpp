// Persistent intra-subregion thread pool.  The paper's efficiency model
// f = (1 + T_com/T_calc)^-1 treats T_calc as fixed; once T_com is hidden
// behind the interior computation (the overlap schedule), the only lever
// left is making T_calc itself smaller.  Every kernel pass in this repo
// iterates independent rows (2D rows, 3D (y, z) pencils) that write
// disjoint output rows, so a *static* contiguous partition of the row
// range across threads computes every row with exactly the same arithmetic
// as the serial loop — the result is bitwise identical for any thread
// count, which is what lets the thread knob stay out of the physics.
//
// The pool is persistent (std::thread, no OpenMP dependency): workers are
// spawned once and parked on a condition variable between parallel
// regions, so per-call overhead is one wake/sleep cycle instead of a
// thread spawn.  The calling thread always executes chunk 0 itself.
#pragma once

#include <algorithm>
#include <cstring>
#include <exception>
#include <functional>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace subsonic {

class WorkerPool {
 public:
  /// A pool of `threads` workers in total; `threads - 1` background
  /// std::threads are spawned (the caller of for_range is the remaining
  /// worker).  `threads` must be >= 1.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return thread_count_; }

  /// Splits [lo, hi) into `threads()` contiguous chunks and calls
  /// fn(chunk_lo, chunk_hi) concurrently, one chunk per worker (empty
  /// chunks are skipped).  Blocks until every chunk is done; rethrows the
  /// first exception any chunk threw.  The partition depends only on
  /// (lo, hi, threads()), never on timing.
  void for_range(int lo, int hi, const std::function<void(int, int)>& fn);

  /// Like for_range, but the contiguous chunk boundaries are placed by
  /// cumulative `weight(i)` instead of index count — the spans-weighted
  /// static partition: when wall rows cluster at one end of a subregion,
  /// the equal-count split leaves the threads owning the fluid end with
  /// most of the work.  The partition depends only on (lo, hi, threads(),
  /// the weights), never on timing, so results stay bitwise identical for
  /// any thread count; only the wall-clock balance changes.
  void for_weighted(int lo, int hi,
                    const std::function<long long(int)>& weight,
                    const std::function<void(int, int)>& fn);

  /// The deterministic chunk of worker `t`: [chunk_begin(lo, hi, t, T),
  /// chunk_begin(lo, hi, t + 1, T)).  Exposed for tests.
  static int chunk_begin(int lo, int hi, int t, int threads) {
    const long long n = static_cast<long long>(hi) - lo;
    return lo + static_cast<int>(n * t / threads);
  }

  /// The weighted partition of [lo, hi): returns `threads + 1` ascending
  /// boundaries with bounds[0] == lo and bounds[threads] == hi; worker t
  /// owns [bounds[t], bounds[t+1]).  Each index contributes weight(i) + 1
  /// (the +1 is the fixed per-row cost — it keeps all-zero-weight ranges
  /// splitting evenly instead of collapsing onto one worker), and the
  /// boundary after worker t is the first index where the cumulative
  /// weight reaches t+1 shares of the total.  Exposed for tests.
  static std::vector<int> weighted_bounds(
      int lo, int hi, int threads,
      const std::function<long long(int)>& weight);

 private:
  void worker_main(int id);
  void run_chunk(int id) noexcept;
  void dispatch(const std::function<void(int, int)>& fn);

  int thread_count_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int, int)>* job_ = nullptr;  // guarded by mutex_
  int job_lo_ = 0, job_hi_ = 0;
  const int* job_bounds_ = nullptr;  // weighted partition; null = equal-count
  std::vector<int> bounds_;  // storage for job_bounds_
  long epoch_ = 0;      // bumped per parallel region; workers wake on change
  int outstanding_ = 0;  // background chunks not yet finished
  bool stop_ = false;
  std::exception_ptr first_error_;  // guarded by mutex_
};

/// Zero-fills [p, p + n) sharded over `pool` (plain memset when null).
/// Used right after an uninitialized slab allocation: on NUMA machines the
/// OS homes each page on the node of the thread that first writes it, so
/// zeroing with the same static partition the kernels later use places
/// every page next to its worker.  The partition is the pool's equal-count
/// chunking — deterministic, and matching for_range's layout.
inline void first_touch_zero(WorkerPool* pool, double* p, std::size_t n) {
  // Chunk in cache-line units so two workers never split a line (and,
  // transitively, never split a page except at chunk boundaries).
  const int lines = static_cast<int>((n + 7) / 8);
  const auto zero = [p, n](int lo, int hi) {
    const std::size_t a = static_cast<std::size_t>(lo) * 8;
    const std::size_t b = std::min(n, static_cast<std::size_t>(hi) * 8);
    if (b > a) std::memset(p + a, 0, (b - a) * sizeof(double));
  };
  if (pool && lines > 1) {
    pool->for_range(0, lines, zero);
  } else {
    zero(0, lines);
  }
}

/// Upper bound of a thread count, explicit or from SUBSONIC_THREADS: each
/// unit is an OS thread of every domain's pool.
constexpr int kMaxThreads = 256;

/// Resolves a driver/domain `threads` knob: values in [1, kMaxThreads]
/// are taken as-is, larger ones throw std::invalid_argument; 0 (the
/// default everywhere) means "use the SUBSONIC_THREADS environment
/// variable, or 1 if unset or empty".  The variable must be an integer in
/// [1, kMaxThreads]; anything else throws std::invalid_argument naming it.
/// Centralizing the env lookup lets CI run whole existing suites with the
/// pool engaged (e.g. TSan with SUBSONIC_THREADS=2) without touching each
/// call site.
int resolve_threads(int requested);

}  // namespace subsonic
