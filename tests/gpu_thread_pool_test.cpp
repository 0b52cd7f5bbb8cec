#include "gpu/thread_pool.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "gpu/launch.h"
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
