#include "gpu/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <utility>

namespace gf::gpu {

namespace {
thread_local const thread_pool* tls_owner = nullptr;
}

/// The live pools and the process-wide pthread_atfork hooks over them.  A
/// child of fork() inherits every pool object but none of its worker
/// threads; without the hooks its first launch waits forever for workers
/// that do not exist.  Do not fork from inside a launch.
struct fork_guard {
  static std::mutex& mu() {
    static std::mutex m;
    return m;
  }
  static std::vector<thread_pool*>& pools() {
    static std::vector<thread_pool*> p;
    return p;
  }
  static void add(thread_pool* pool) {
    static const int registered = ::pthread_atfork(prepare, parent, child);
    (void)registered;
    std::lock_guard lock(mu());
    pools().push_back(pool);
  }
  static void remove(thread_pool* pool) {
    std::lock_guard lock(mu());
    std::erase(pools(), pool);
  }
  static void prepare() {
    mu().lock();
    for (thread_pool* p : pools()) p->fork_prepare();
  }
  static void parent() {
    for (thread_pool* p : pools()) p->fork_parent();
    mu().unlock();
  }
  static void child() {
    for (thread_pool* p : pools()) p->fork_child();
    mu().unlock();
  }
};

thread_pool& thread_pool::instance() {
  static thread_pool pool(query_pool_size());
  return pool;
}

// Sizing hook kept out-of-line so tests can reason about it; honors
// GF_NUM_WORKERS for reproducible CI runs.
unsigned query_pool_size() {
  if (const char* env = std::getenv("GF_NUM_WORKERS")) {
    int v = std::atoi(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

thread_pool::thread_pool(unsigned num_workers)
    : width_(num_workers < 1 ? 1 : num_workers) {
  spawn_workers(epoch_);
  fork_guard::add(this);
}

thread_pool::~thread_pool() {
  fork_guard::remove(this);
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

bool thread_pool::in_worker() const { return tls_owner == this; }

thread_pool::worker_scope::worker_scope(const thread_pool* pool)
    : prev(std::exchange(tls_owner, pool)) {}
thread_pool::worker_scope::~worker_scope() { tls_owner = prev; }

void thread_pool::spawn_workers(uint64_t epoch) {
  workers_.reserve(width_ - 1);
  for (auto i = static_cast<unsigned>(workers_.size()) + 1; i < width_; ++i)
    workers_.emplace_back([this, i, epoch] { worker_loop(i, epoch); });
}

void thread_pool::fork_prepare() {
  launch_mu_.lock();
  mu_.lock();
}

void thread_pool::fork_parent() {
  mu_.unlock();
  launch_mu_.unlock();
}

void thread_pool::fork_child() {
  // Only the forking thread exists here.  The worker handles name threads
  // of the parent: overwrite them with empty handles (joining, detaching
  // or destroying a joinable handle are all invalid).  The condition
  // variables may still count the parent's parked workers as waiters, so
  // they are rebuilt rather than destroyed.
  for (std::thread& t : workers_) new (&t) std::thread();
  workers_.clear();
  new (&cv_start_) std::condition_variable();
  new (&cv_done_) std::condition_variable();
  job_ = nullptr;
  remaining_ = 0;
  mu_.unlock();
  launch_mu_.unlock();
}

void thread_pool::run_on_all(const std::function<void(unsigned)>& fn) {
  // Top-level launches are exclusive: job_ / remaining_ / epoch_ describe
  // exactly one launch at a time.  Two independent non-worker threads (two
  // net::server event loops sharing the process pool, or a server plus a
  // caller-thread bulk build) used to double-book that state — workers from
  // both launches raced the same cursor, which is precisely what made
  // concurrent point-TCF slot placement schedule-dependent.  A contended
  // launch now degrades to inline serial execution of every worker id on
  // the caller (the same discipline nested launches already follow), so
  // exclusivity is never traded for a blocking wait that could stall an
  // event loop behind a long foreign launch.  A width-1 pool runs its one
  // id the same way, uncounted.
  if (width_ == 1 || !launch_mu_.try_lock()) {
    // relaxed: monotone statistic; no data is published through it.
    if (width_ > 1)
      contended_launches_.fetch_add(1, std::memory_order_relaxed);
    const worker_scope as_worker(this);
    for (unsigned w = 0; w < width_; ++w) fn(w);
    return;
  }
  std::lock_guard launch_guard(launch_mu_, std::adopt_lock);
  // After a fork the child's pool has no workers until its first launch.
  if (workers_.size() + 1 < width_) spawn_workers(epoch_);
  {
    std::lock_guard lock(mu_);
    job_ = &fn;
    remaining_ = static_cast<unsigned>(workers_.size());
    ++epoch_;
  }
  cv_start_.notify_all();
  // The caller is worker 0 — mark it as such for the duration so that a
  // nested launch issued from inside fn executes inline, exactly like it
  // does on the spawned workers.  Without this, caller-side shard work
  // that launches (e.g. a per-shard bulk sort) would start a second
  // top-level launch while this one is in flight, double-booking job_ /
  // remaining_ (an unsigned underflow parks everyone forever).
  {
    const worker_scope as_worker(this);
    fn(0);
  }
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
}

void thread_pool::worker_loop(unsigned id, uint64_t seen_epoch) {
  tls_owner = this;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    (*job)(id);
    {
      std::lock_guard lock(mu_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace gf::gpu
