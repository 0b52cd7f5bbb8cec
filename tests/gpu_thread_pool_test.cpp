#include "gpu/thread_pool.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "gpu/launch.h"
#include "par/reduce_by_key.h"
#include "store/store.h"
#include "util/xorwow.h"

// TSan supports fork from a multi-threaded process only barely (the child
// loses the runtime's background machinery), so the fork drill is skipped
// there, as in persist_wal_test.
#if defined(__SANITIZE_THREAD__)
#define GF_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GF_TSAN_ACTIVE 1
#endif
#endif

namespace gf::gpu {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  auto& pool = thread_pool::instance();
  constexpr uint64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 128, [&](uint64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmptyAndTinyRanges) {
  auto& pool = thread_pool::instance();
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, 16, [&](uint64_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(10, 13, 16, [&](uint64_t) { ++count; });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ParallelRangesPartition) {
  auto& pool = thread_pool::instance();
  constexpr uint64_t kN = 77777;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_ranges(kN, [&](unsigned, uint64_t b, uint64_t e) {
    ASSERT_LE(b, e);
    for (uint64_t i = b; i < e; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelRangesAtFloorRunsOnCaller) {
  // A batch of kLaunchFloor items is one range on the caller, marked as a
  // pool worker, and wakes no worker: the pool stays free, so another
  // thread's launch made meanwhile is admitted onto every worker rather
  // than counted as contended and run inline.
  thread_pool pool(4);
  const auto caller = std::this_thread::get_id();
  const uint64_t contended = pool.contended_launches();
  std::vector<std::tuple<unsigned, uint64_t, uint64_t>> calls;
  std::set<std::thread::id> foreign_threads;
  pool.parallel_ranges(kLaunchFloor, [&](unsigned w, uint64_t b, uint64_t e) {
    calls.emplace_back(w, b, e);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_TRUE(pool.in_worker());
    std::mutex mu;
    std::thread foreign([&] {
      pool.run_on_all([&](unsigned) {
        std::lock_guard lk(mu);
        foreign_threads.insert(std::this_thread::get_id());
      });
    });
    foreign.join();
  });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_tuple(0u, uint64_t{0}, kLaunchFloor));
  EXPECT_FALSE(pool.in_worker());
  EXPECT_EQ(foreign_threads.size(), pool.size());
  EXPECT_EQ(pool.contended_launches(), contended);
}

TEST(ThreadPool, ParallelRangesAboveFloorGivesEveryWorkerARange) {
  thread_pool pool(4);
  constexpr uint64_t kN = kLaunchFloor + 1;
  std::mutex mu;
  std::vector<std::tuple<unsigned, uint64_t, uint64_t>> calls;
  std::set<std::thread::id> threads;
  pool.parallel_ranges(kN, [&](unsigned w, uint64_t b, uint64_t e) {
    std::lock_guard lk(mu);
    calls.emplace_back(w, b, e);
    threads.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(calls.size(), pool.size());
  EXPECT_EQ(threads.size(), pool.size());
  std::sort(calls.begin(), calls.end());
  uint64_t covered = 0;  // worker w's range follows worker w - 1's
  for (unsigned w = 0; w < pool.size(); ++w) {
    const auto [id, begin, end] = calls[w];
    EXPECT_EQ(id, w);
    EXPECT_EQ(begin, covered);
    EXPECT_LT(begin, end);
    covered = end;
  }
  EXPECT_EQ(covered, kN);
}

TEST(ThreadPool, ReduceByKeyAboveFloorMatchesSerialRuns) {
  // reduce_by_key's three phases launch over the same n, so a batch above
  // the floor spreads all three over the process pool (4 workers in the
  // _w4 registration).  One run is longer than a worker's whole range, so
  // it swallows the next worker's range and ends inside a later one.
  constexpr uint64_t kN = 4 * kLaunchFloor;
  std::vector<uint64_t> sorted, weights;
  for (uint64_t i = 0; sorted.size() < kN; ++i) {
    const uint64_t len = i == 3 ? kN / 2 : 1 + i % 5;
    for (uint64_t j = 0; j < len && sorted.size() < kN; ++j) {
      sorted.push_back(i * 10);
      weights.push_back(1 + sorted.size() % 3);
    }
  }
  par::keyed_counts serial, weighted_serial;
  for (uint64_t i = 0; i < kN; ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) {
      for (auto* r : {&serial, &weighted_serial}) {
        r->keys.push_back(sorted[i]);
        r->counts.push_back(0);
      }
    }
    serial.counts.back() += 1;
    weighted_serial.counts.back() += weights[i];
  }
  const auto plain = par::reduce_by_key(sorted);
  EXPECT_EQ(plain.keys, serial.keys);
  EXPECT_EQ(plain.counts, serial.counts);
  const auto weighted = par::reduce_by_key(sorted, weights);
  EXPECT_EQ(weighted.keys, weighted_serial.keys);
  EXPECT_EQ(weighted.counts, weighted_serial.counts);
}

TEST(ThreadPool, LaunchSumMatchesSerialSum) {
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, kLaunchFloor,
                     kLaunchFloor + 1, uint64_t{100000}}) {
    std::vector<uint64_t> v(n);
    std::iota(v.begin(), v.end(), uint64_t{7});
    std::mutex mu;
    std::vector<std::pair<uint64_t, uint64_t>> calls;
    const uint64_t sum = launch_sum(n, [&](uint64_t begin, uint64_t end) {
      {
        std::lock_guard lk(mu);
        calls.emplace_back(begin, end);
      }
      return std::accumulate(v.begin() + begin, v.begin() + end, uint64_t{0});
    });
    EXPECT_EQ(sum, std::accumulate(v.begin(), v.end(), uint64_t{0})) << n;
    if (n == 0) {
      EXPECT_TRUE(calls.empty());
    } else if (n <= kLaunchFloor) {
      // One range, on the caller: too small to wake the pool for.
      ASSERT_EQ(calls.size(), 1u) << n;
      EXPECT_EQ(calls[0], std::make_pair(uint64_t{0}, n));
    } else {
      EXPECT_LE(calls.size(), thread_pool::instance().size()) << n;
      std::sort(calls.begin(), calls.end());
      uint64_t covered = 0;  // sorted ranges must tile [0, n) exactly
      for (const auto& [begin, end] : calls) {
        EXPECT_EQ(begin, covered) << n;
        EXPECT_LT(begin, end) << n;
        covered = end;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ThreadPool, NestedLaunchExecutesInline) {
  // A kernel body can call parallel primitives (the bulk TCF phases do);
  // nesting must neither deadlock nor duplicate work.
  std::atomic<uint64_t> total{0};
  launch_threads(16, [&](uint64_t) {
    thread_pool::instance().parallel_for(0, 100, 10, [&](uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 1600u);
}

TEST(ThreadPool, NestedLaunchFromCallerThreadExecutesInline) {
  // run_on_all's caller acts as worker 0.  When the item it processes
  // itself launches (the shape of a per-shard bulk sort inside a
  // shard-parallel store build), that nested launch must execute inline
  // like it does on the spawned workers — a second top-level launch while
  // one is in flight would double-book job_/remaining_ and park the pool
  // forever.  An explicit multi-worker pool + grain 1 forces the caller
  // into the worker-0 role even on single-core CI hosts.
  thread_pool pool(4);
  std::atomic<uint64_t> sum{0};
  pool.parallel_for(0, 16, 1, [&](uint64_t) {
    uint64_t local = 0;
    pool.parallel_for(0, 100, 8, [&](uint64_t j) { local += j; });
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 16u * 4950u);
}

TEST(ThreadPool, ConcurrentTopLevelLaunchesFromForeignThreads) {
  // Regression for the launch-admission path: two (here: four) independent
  // non-worker threads launching on the SAME pool at once used to
  // double-book job_/remaining_/epoch_ — the root cause of the
  // schedule-dependent point-TCF slot placement.  The pool now admits one
  // launch and the losers run their worker ids inline, so every launch
  // must cover its range exactly once and nothing may deadlock.
  thread_pool pool(4);
  constexpr int kLaunchers = 4;
  constexpr uint64_t kN = 5000;
  constexpr int kRounds = 20;
  std::vector<std::vector<std::atomic<uint32_t>>> hits(kLaunchers);
  for (auto& v : hits) v = std::vector<std::atomic<uint32_t>>(kN);

  std::vector<std::thread> launchers;
  for (int t = 0; t < kLaunchers; ++t) {
    launchers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(0, kN, 64, [&, t](uint64_t i) {
          hits[t][i].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& th : launchers) th.join();

  for (int t = 0; t < kLaunchers; ++t)
    for (uint64_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[t][i].load(), kRounds) << "launcher " << t << " i " << i;
}

TEST(ThreadPool, ConcurrentLaunchesWithNestedLaunchesInside) {
  // The contended shape the store actually produces: each top-level launch
  // body itself launches (per-shard bulk phases).  Inline-fallback callers
  // mark themselves as workers, so the nested launches must still execute
  // inline rather than re-entering admission and deadlocking.
  thread_pool pool(3);
  constexpr int kLaunchers = 3;
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> launchers;
  for (int t = 0; t < kLaunchers; ++t) {
    launchers.emplace_back([&] {
      pool.parallel_for(0, 8, 1, [&](uint64_t) {
        pool.parallel_for(0, 100, 10, [&](uint64_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
  }
  for (auto& th : launchers) th.join();
  EXPECT_EQ(total.load(), uint64_t{kLaunchers} * 8 * 100);
}

TEST(ThreadPool, ContendedLaunchIsCounted) {
  // Thread A's launch holds the pool until thread B's launch has finished,
  // so B must find the pool busy, run inline, and advance the count; A's
  // own (admitted) launch does not.
  thread_pool pool(2);
  const uint64_t before = pool.contended_launches();
  std::atomic<bool> a_running{false};
  std::atomic<bool> b_done{false};
  std::thread a([&] {
    pool.run_on_all([&](unsigned w) {
      if (w != 0) return;
      a_running.store(true);
      while (!b_done.load()) std::this_thread::yield();
    });
  });
  while (!a_running.load()) std::this_thread::yield();
  unsigned b_ids = 0;
  pool.run_on_all([&](unsigned) { ++b_ids; });
  b_done.store(true);
  a.join();
  EXPECT_EQ(b_ids, 2u);  // every worker id, serially on this thread
  EXPECT_EQ(pool.contended_launches(), before + 1);
}

TEST(ThreadPool, SequentialLaunchesReuseWorkers) {
  // Many short launches in a row: exercises the epoch handshake.
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round)
    launch_threads(64, [&](uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 200u * 64);
}

TEST(ThreadPool, ConcurrentMutationVisibleAfterJoin) {
  // Writes made inside a launch are visible after it returns (the launch
  // acts as a synchronization point, like a CUDA kernel + deviceSync).
  std::vector<uint64_t> data(10000, 0);
  launch_threads(data.size(), [&](uint64_t i) { data[i] = i * i; });
  for (uint64_t i = 0; i < data.size(); ++i) ASSERT_EQ(data[i], i * i);
}

TEST(ThreadPool, ForkChildRelaunchesWorkers) {
#ifdef GF_TSAN_ACTIVE
  GTEST_SKIP() << "fork from a multi-threaded process is unreliable under TSan";
#endif
  // A 4-worker pool that another thread keeps launching on while we fork,
  // plus the process pool, started by a bulk insert.  The child inherits
  // both pool objects but none of their worker threads: before the atfork
  // hooks, its first launch waited forever on workers that did not exist.
  thread_pool pool(4);
  std::atomic<bool> stop{false};
  std::thread launcher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::atomic<uint64_t> n{0};
      pool.parallel_for(0, 4096, 16, [&](uint64_t) {
        n.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  store::store_config cfg;
  cfg.num_shards = 4;
  cfg.capacity = 1 << 16;
  store::filter_store st(cfg);
  const auto keys = util::hashed_xorwow_items(1 << 14, 41);
  ASSERT_EQ(st.insert_bulk(keys), keys.size());

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::alarm(30);  // watchdog: a hung launch ends the child by SIGALRM
    std::atomic<uint64_t> sum{0};
    pool.parallel_for(0, 1000, 8, [&](uint64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    const auto more = util::hashed_xorwow_items(1 << 14, 42);
    const bool ok = sum.load() == 999u * 1000 / 2 && pool.size() == 4 &&
                    st.insert_bulk(more) == more.size() &&
                    st.count_contained(keys) == keys.size() &&
                    st.count_contained(more) == more.size();
    ::_exit(ok ? 0 : 1);
  }
  int ws = 0;
  const pid_t waited = pid > 0 ? ::waitpid(pid, &ws, 0) : -1;
  stop.store(true, std::memory_order_relaxed);
  launcher.join();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(waited, pid);
  ASSERT_TRUE(WIFEXITED(ws)) << "child died by signal " << WTERMSIG(ws)
                             << " (SIGALRM: a launch hung)";
  EXPECT_EQ(WEXITSTATUS(ws), 0);
  // The parent's pools keep working after the fork.
  std::atomic<uint64_t> after{0};
  pool.parallel_for(0, 1000, 8, [&](uint64_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 1000u);
  EXPECT_EQ(st.count_contained(keys), keys.size());
}

}  // namespace
}  // namespace gf::gpu
