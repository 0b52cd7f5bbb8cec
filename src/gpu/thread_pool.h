// The "SM scheduler": a persistent thread pool that plays the role of the
// GPU's streaming multiprocessors.  Kernel-style bulk launches (gpu/launch.h)
// decompose their grid over this pool.
//
// Design notes:
//  * Workers are created once (first use) and parked on a condition
//    variable between launches; a launch is a single closure executed by
//    every worker, with work distribution done *inside* the closure via an
//    atomic cursor.  This mirrors persistent-kernel style scheduling and
//    keeps per-launch overhead at one wakeup.
//  * Nested launches execute inline on the calling worker (GPUs do not
//    nest dynamic parallelism here either), which makes the primitives
//    composable without deadlock.
//  * fork() is safe: a pthread_atfork handler quiesces every live pool
//    (holds its launch and state mutexes across the fork), and in the
//    child — which inherits none of the worker threads — resets each pool
//    so its workers re-spawn on the next launch.  size() never changes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gf::gpu {

/// The pool's one launch rule: parallel_ranges runs a batch of at most
/// this many items as one range on the caller, and it is launch_threads'
/// default grain.  From micro_primitives' BM_PoolLaunch row (README,
/// "Benchmarks"): a width-4 launch costs about 20 us on a 4-vCPU host, and
/// a point-TCF probe batch first gains from one between 1024 and 2048.
inline constexpr uint64_t kLaunchFloor = 1024;

/// Number of workers the global pool uses: GF_NUM_WORKERS env var when set,
/// otherwise hardware concurrency.
unsigned query_pool_size();

class thread_pool {
 public:
  /// The process-wide pool (sized to hardware concurrency).
  static thread_pool& instance();

  explicit thread_pool(unsigned num_workers);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  unsigned size() const { return width_; }

  /// Run `fn(worker_id)` on every worker (worker 0 is the caller) and wait
  /// for completion.  `fn` must partition its own work; see parallel_for.
  ///
  /// Concurrent top-level launches from independent threads are safe: the
  /// pool admits one launch at a time, and a thread that finds the pool
  /// busy runs every worker id inline on itself instead (serial, in id
  /// order) — so `fn` must tolerate its worker ids executing sequentially
  /// on one thread, which every cursor/static-range decomposition in this
  /// codebase does.  Never blocks behind a foreign launch.
  void run_on_all(const std::function<void(unsigned)>& fn);

  /// Dynamic parallel loop over [begin, end) in chunks of `grain`.
  /// Safe to call from inside a pool worker (executes inline).
  template <class Fn>
  void parallel_for(uint64_t begin, uint64_t end, uint64_t grain, Fn&& fn) {
    if (begin >= end) return;
    uint64_t n = end - begin;
    if (in_worker() || n <= grain || size() == 1) {
      for (uint64_t i = begin; i < end; ++i) fn(i);
      return;
    }
    std::atomic<uint64_t> cursor{begin};
    run_on_all([&](unsigned) {
      for (;;) {
        // relaxed: cursor hands out disjoint indices; data is read after the join.
        uint64_t chunk = cursor.fetch_add(grain, std::memory_order_relaxed);
        if (chunk >= end) break;
        uint64_t stop = chunk + grain < end ? chunk + grain : end;
        for (uint64_t i = chunk; i < stop; ++i) fn(i);
      }
    });
  }

  /// Static partition of [0, n) into one contiguous range per worker:
  /// fn(worker_id, begin, end).  Used where per-worker state matters
  /// (e.g. per-worker histograms in the radix sort).  At most kLaunchFloor
  /// items, a nested launch or a width-1 pool run fn(0, 0, n) on the
  /// caller, marked as a worker so that launches nested in fn run inline.
  template <class Fn>
  void parallel_ranges(uint64_t n, Fn&& fn) {
    if (n == 0) return;
    const unsigned p = size();
    if (n <= kLaunchFloor || p == 1 || in_worker()) {
      const worker_scope as_worker(this);
      fn(0u, uint64_t{0}, n);
      return;
    }
    run_on_all([&](unsigned w) {
      uint64_t begin = n * w / p;
      uint64_t end = n * (w + 1) / p;
      if (begin < end) fn(w, begin, end);
    });
  }

  /// True when the calling thread is one of this pool's workers.
  bool in_worker() const;

  /// Top-level launches that found the pool busy with another thread's
  /// launch and ran inline on their caller (see run_on_all).  Monotone.
  uint64_t contended_launches() const {
    // relaxed: monotone statistic; no data is published through it.
    return contended_launches_.load(std::memory_order_relaxed);
  }

 private:
  friend struct fork_guard;

  /// Marks the calling thread as this pool's worker while alive, so
  /// launches nested in an inline run execute inline too.
  struct worker_scope {
    explicit worker_scope(const thread_pool* pool);
    ~worker_scope();
    const thread_pool* prev;
  };

  /// Start the missing workers; they wait for the launch after `epoch`.
  /// Caller holds launch_mu_ (or is the constructor).
  void spawn_workers(uint64_t epoch);
  void worker_loop(unsigned id, uint64_t seen_epoch);
  /// atfork hooks: quiesce before the fork, release in the parent, forget
  /// the (absent) workers in the child.
  void fork_prepare();
  void fork_parent();
  void fork_child();

  unsigned width_;  ///< workers including the caller; fixed for life
  std::vector<std::thread> workers_;
  std::mutex launch_mu_;  ///< admits one top-level launch at a time
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  uint64_t epoch_ = 0;
  unsigned remaining_ = 0;
  bool stop_ = false;
  std::atomic<uint64_t> contended_launches_{0};
};

}  // namespace gf::gpu
