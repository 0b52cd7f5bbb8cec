// Kernel-style bulk launches over the SM scheduler.
//
// A CUDA kernel launch <<<grid, block>>> becomes a decomposition of work
// items over the thread pool:
//   * launch_threads(n, fn) — one logical GPU thread per item
//                             (point-API benches: one op per thread)
//   * launch_ranges(n, fn)  — one static range per pool worker
//   * launch_sum(n, range)  — launch_ranges that adds up range(begin, end),
//                             one add per worker: a batch's tally
//                             (block-reduce, then one atomicAdd per block)
//
// When a launch pays for itself is the pool's one rule, kLaunchFloor
// (gpu/thread_pool.h).
#pragma once

#include <atomic>
#include <cstdint>

#include "gpu/thread_pool.h"

namespace gf::gpu {

/// One logical GPU thread per index in [0, n).
template <class Fn>
void launch_threads(uint64_t n, Fn&& fn, uint64_t grain = kLaunchFloor) {
  thread_pool::instance().parallel_for(0, n, grain,
                                       [&](uint64_t i) { fn(i); });
}

/// Static per-worker ranges: fn(worker, begin, end).  Bulk phases that need
/// per-worker scratch (histograms, buffers) use this.
template <class Fn>
void launch_ranges(uint64_t n, Fn&& fn) {
  thread_pool::instance().parallel_ranges(n, std::forward<Fn>(fn));
}

/// Sum of range(begin, end) over the static ranges of launch_ranges(n).
template <class Range>
uint64_t launch_sum(uint64_t n, Range&& range) {
  std::atomic<uint64_t> total{0};
  launch_ranges(n, [&](unsigned, uint64_t begin, uint64_t end) {
    const uint64_t local = range(begin, end);
    // relaxed: worker-private tally; the launch join publishes it to the reader.
    if (local) total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load();
}

}  // namespace gf::gpu
