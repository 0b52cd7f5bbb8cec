// Concurrency stress for the whole engine surface, written to be run under
// ThreadSanitizer (ctest registers this binary at GF_NUM_WORKERS=2, 4 and 7;
// the CI TSan job runs the `concurrency` label).  Each test hammers one
// documented concurrency contract:
//
//   * point ops (insert/contains/count/erase) from many caller threads,
//     including across multi-level cascades,
//   * host-phased bulk inserts with concurrent point *readers*,
//   * two independent stores bulk-building at once (concurrent top-level
//     pool launches — the thread_pool::run_on_all admission path),
//   * obs::latency_histogram lane recording against concurrent snapshots,
//   * the point TCF's whole-block scan (relaxed 64-bit word loads) racing
//     single-slot claim and delete CASes on the same blocks.
//
// Assertions are exact where the contract is exact (every completed insert
// is visible after the threads join; histogram counts balance) and bounded
// where it is bounded (false positives, torn in-flight snapshots).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gpu/thread_pool.h"
#include "obs/histogram.h"
#include "store/store.h"
#include "tcf/tcf.h"
#include "util/xorwow.h"

namespace {

using namespace gf;
using store::backend_kind;

store::store_config config(backend_kind backend, uint32_t shards,
                           uint64_t capacity) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = shards;
  cfg.capacity = capacity;
  return cfg;
}

// Backends whose point-op path is CAS/lock based and thread-safe.  The
// bulk_tcf backend is bulk-only by contract, so point hammering skips it.
constexpr backend_kind kPointBackends[] = {
    backend_kind::tcf, backend_kind::gqf, backend_kind::blocked_bloom};

TEST(ConcurrencyStress, PointInsertsFromManyThreadsAllLand) {
  for (backend_kind backend : kPointBackends) {
    store::filter_store s(config(backend, 8, 1 << 15));
    constexpr int kThreads = 6;
    constexpr uint64_t kPerThread = 3000;
    std::vector<std::vector<uint64_t>> keys(kThreads);
    for (int t = 0; t < kThreads; ++t)
      keys[t] = util::hashed_xorwow_items(kPerThread, 9000 + t);

    std::vector<std::thread> threads;
    std::atomic<uint64_t> ok{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        uint64_t local = 0;
        for (uint64_t k : keys[t]) local += s.insert(k) ? 1 : 0;
        ok.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(ok.load(), uint64_t{kThreads} * kPerThread)
        << backend_name(backend);
    for (auto& batch : keys)
      for (uint64_t k : batch)
        ASSERT_TRUE(s.contains(k)) << backend_name(backend);
  }
}

TEST(ConcurrencyStress, MixedPointOpsAcrossGrownCascades) {
  for (backend_kind backend : kPointBackends) {
    // Phase 1 (host-phased): flood past the pressure threshold and run
    // maintenance until at least one shard carries an overflow child, so
    // the concurrent phase walks real multi-level cascades.
    store::filter_store s(config(backend, 4, 1 << 12));
    auto resident = util::hashed_xorwow_items(4000, 777);
    store::maintain_config mc;
    mc.pressure_load = 0.5;
    for (size_t off = 0; off < resident.size(); off += 500) {
      for (size_t i = off; i < off + 500; ++i) s.insert(resident[i]);
      s.maintain(mc);
    }
    uint32_t max_levels = 0;
    for (const auto& r : s.report()) max_levels = std::max(max_levels, r.levels);
    ASSERT_GT(max_levels, 1u) << backend_name(backend);

    // Only keys whose insert was *accepted* are promised visible — a
    // pressured shard may refuse (that is the cascade trigger, not a bug).
    std::vector<uint64_t> landed;
    for (uint64_t k : resident)
      if (s.contains(k)) landed.push_back(k);
    ASSERT_GT(landed.size(), resident.size() * 9 / 10)
        << backend_name(backend);

    // Phase 2: writers insert fresh keys, erasers remove a doomed slice,
    // readers walk the landed set — all concurrently.
    auto fresh = util::hashed_xorwow_items(3000, 778);
    auto doomed = util::hashed_xorwow_items(1500, 779);
    std::vector<uint64_t> doomed_in;
    for (uint64_t k : doomed)
      if (s.insert(k)) doomed_in.push_back(k);

    std::vector<std::thread> threads;
    std::vector<uint8_t> fresh_ok(fresh.size(), 0);
    threads.emplace_back([&] {
      for (size_t i = 0; i < fresh.size(); ++i)
        fresh_ok[i] = s.insert(fresh[i]) ? 1 : 0;
    });
    threads.emplace_back([&] {
      for (uint64_t k : doomed_in) s.erase(k);
    });
    std::atomic<uint64_t> misses{0};
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&] {
        uint64_t local = 0;
        for (uint64_t k : landed) local += s.contains(k) ? 0 : 1;
        misses.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (auto& th : threads) th.join();

    // Erase can false-delete a landed key whose fingerprint aliases a
    // doomed key (set-semantics filters share the tag) — that is inherent
    // filter semantics, so the bound is "a handful", not zero.  The point
    // of this test is that the churn is race-free and nothing is lost
    // beyond aliasing noise.
    EXPECT_LE(misses.load(), landed.size() * 3 / 100)
        << backend_name(backend);
    uint64_t fresh_lost = 0;
    for (size_t i = 0; i < fresh.size(); ++i)
      if (fresh_ok[i] && !s.contains(fresh[i])) ++fresh_lost;
    EXPECT_LE(fresh_lost, fresh.size() / 100) << backend_name(backend);
  }
}

TEST(ConcurrencyStress, BulkInsertsWithConcurrentReaders) {
  // insert_bulk is host-phased against other *writers*; point readers are
  // fair game on the monotone-publication backends (tcf: CAS claim-then-
  // publish; blocked_bloom: atomicOr) and must see every key from
  // completed batches.  Slot-shifting backends (gqf, bulk_tcf) define
  // reads only between batches — PhasedBulkRoundsWithParallelVerification
  // covers those.
  constexpr backend_kind kLiveReadBackends[] = {backend_kind::tcf,
                                                backend_kind::blocked_bloom};
  for (backend_kind backend : kLiveReadBackends) {
    store::filter_store s(config(backend, 8, 1 << 15));
    auto warm = util::hashed_xorwow_items(8000, 555);
    ASSERT_EQ(s.insert_bulk(warm), warm.size());

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> warm_misses{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&] {
        uint64_t local = 0;
        while (!stop.load(std::memory_order_relaxed))
          for (uint64_t k : warm) local += s.contains(k) ? 0 : 1;
        warm_misses.fetch_add(local, std::memory_order_relaxed);
      });
    }

    uint64_t inserted = 0;
    std::vector<std::vector<uint64_t>> rounds;
    for (int round = 0; round < 4; ++round) {
      rounds.push_back(util::hashed_xorwow_items(4000, 600 + round));
      inserted += s.insert_bulk(rounds.back());
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : readers) th.join();

    EXPECT_EQ(warm_misses.load(), 0u) << backend_name(backend);
    EXPECT_EQ(inserted, uint64_t{4} * 4000) << backend_name(backend);
    for (auto& r : rounds)
      for (uint64_t k : r) ASSERT_TRUE(s.contains(k)) << backend_name(backend);
  }
}

TEST(ConcurrencyStress, PointTcfBlockScansRaceSlotWrites) {
  // Three readers run contains_each batches over keys stored before they
  // start, scanning each block as relaxed 64-bit words (tcf_block.h),
  // while one writer claims and tombstones 16-bit slots of the same blocks
  // with point insert/erase.  No stored key may ever read as absent.
  tcf::point_tcf f(1 << 10);  // 32 blocks: every block sees both sides
  const auto stored = util::hashed_xorwow_items(f.capacity() / 3, 4242);
  ASSERT_EQ(f.insert_bulk(stored), stored.size());
  // The writer's keys alias no stored key: an erase tombstones the lowest
  // slot matching its fingerprint in its blocks, so a key that already
  // reads as present could take a stored key's slot.  That is the TCF's
  // aliased delete (§6.4), not a race, so such keys are left out.
  std::vector<uint64_t> churn;
  for (uint64_t k : util::hashed_xorwow_items(20000, 4343))
    if (!f.contains(k)) churn.push_back(k);

  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> misses{0}, batches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      started.fetch_add(1);
      uint64_t local_misses = 0, local_batches = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        f.contains_each(stored,
                        [&](size_t, bool hit) { local_misses += !hit; });
        ++local_batches;
      }
      misses.fetch_add(local_misses);
      batches.fetch_add(local_batches);
    });
  }
  while (started.load() < 3) std::this_thread::yield();
  for (int round = 0; round < 4; ++round)
    for (uint64_t k : churn) {
      ASSERT_TRUE(f.insert(k));
      ASSERT_TRUE(f.erase(k));
    }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  EXPECT_EQ(misses.load(), 0u);
  EXPECT_GE(batches.load(), 3u);
  EXPECT_EQ(f.size(), stored.size());
  EXPECT_EQ(f.count_contained(stored), stored.size());
}

TEST(ConcurrencyStress, PhasedBulkRoundsWithParallelVerification) {
  // The host-phased discipline for every backend, including the
  // slot-shifting ones: bulk rounds alternate with a *parallel* read-only
  // verification pass (readers race each other, never a writer).  Readers
  // verify through the point ops and the per-key read tier, and the main
  // thread's batch probe runs alongside them; every batch is above the
  // launch floor, so they race for the pool and the losers run their
  // ranges inline — the GQF's batched reads are lockless, so this is where
  // TSan sees them.
  constexpr backend_kind kAllBackends[] = {
      backend_kind::tcf, backend_kind::gqf, backend_kind::blocked_bloom,
      backend_kind::bulk_tcf};
  for (backend_kind backend : kAllBackends) {
    store::filter_store s(config(backend, 8, 1 << 15));
    std::vector<uint64_t> all;
    for (int round = 0; round < 4; ++round) {
      auto batch = util::hashed_xorwow_items(5000, 900 + round);
      ASSERT_EQ(s.insert_bulk(batch), batch.size()) << backend_name(backend);
      all.insert(all.end(), batch.begin(), batch.end());

      std::atomic<uint64_t> misses{0};
      std::vector<std::thread> readers;
      for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
          uint64_t local = 0;
          std::vector<uint64_t> mine;
          for (size_t i = t; i < all.size(); i += 4) {
            local += s.contains(all[i]) ? 0 : 1;
            mine.push_back(all[i]);
          }
          std::vector<uint8_t> hit(mine.size());
          std::vector<uint64_t> count(mine.size());
          s.contains_each(mine, hit);
          s.count_each(mine, count);
          for (size_t i = 0; i < mine.size(); ++i)
            local += (hit[i] ? 0 : 1) + (count[i] ? 0 : 1);
          misses.fetch_add(local, std::memory_order_relaxed);
        });
      }
      std::vector<uint8_t> hit(all.size());
      s.contains_each(all, hit);
      for (auto& th : readers) th.join();
      ASSERT_EQ(misses.load(), 0u)
          << backend_name(backend) << " round " << round;
      ASSERT_EQ(std::count(hit.begin(), hit.end(), 0), 0)
          << backend_name(backend) << " round " << round;
    }
  }
}

TEST(ConcurrencyStress, IndependentStoresBulkBuildConcurrently) {
  // Two stores bulk-building from two caller threads contend for the
  // process pool: one launch wins the pool, the other runs its worker ids
  // inline (thread_pool::run_on_all admission).  Both must finish with
  // full, correct contents — this is the in-process shape of a primary and
  // replica server sharing one engine.
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    store::filter_store a(config(backend_kind::tcf, 8, 1 << 15));
    store::filter_store b(config(backend_kind::gqf, 8, 1 << 15));
    auto ka = util::hashed_xorwow_items(12000, 100 + round);
    auto kb = util::hashed_xorwow_items(12000, 200 + round);

    uint64_t na = 0, nb = 0;
    std::thread ta([&] { na = a.insert_bulk(ka); });
    std::thread tb([&] { nb = b.insert_bulk(kb); });
    ta.join();
    tb.join();

    EXPECT_EQ(na, ka.size());
    EXPECT_EQ(nb, kb.size());
    for (uint64_t k : ka) ASSERT_TRUE(a.contains(k));
    for (uint64_t k : kb) ASSERT_TRUE(b.contains(k));
  }
}

TEST(ConcurrencyStress, HistogramLanesExactUnderConcurrentRecorders) {
  obs::latency_histogram h(gpu::thread_pool::instance().size());
  constexpr int kThreads = 7;
  constexpr uint64_t kPerThread = 50000;

  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    // Concurrent snapshots may tear (documented), but bucket totals are
    // monotone while recording — watch for any decrease.
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t n = h.snapshot().count();
      EXPECT_GE(n, last);
      last = n;
    }
  });

  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      util::xorwow rng(42 + t);
      for (uint64_t i = 0; i < kPerThread; ++i)
        h.record_lane(static_cast<unsigned>(t), rng.next32() & 0xffff);
    });
  }
  for (auto& th : recorders) th.join();
  stop.store(true, std::memory_order_relaxed);
  scanner.join();

  auto s = h.snapshot();
  EXPECT_EQ(s.count(), uint64_t{kThreads} * kPerThread);
  EXPECT_LE(s.max(), uint64_t{0xffff} * 2);  // bucket upper bound is <2x
}

TEST(ConcurrencyStress, PoolLaunchesFromManyForeignThreadsCoverExactly) {
  // N non-worker threads issue top-level parallel_for launches at once.
  // Whatever mix of pool execution and inline fallback each launch gets,
  // every index must be visited exactly once per launch.
  constexpr int kThreads = 5;
  constexpr uint64_t kN = 20000;
  std::vector<std::vector<std::atomic<uint32_t>>> hits(kThreads);
  for (auto& v : hits) v = std::vector<std::atomic<uint32_t>>(kN);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gpu::thread_pool::instance().parallel_for(0, kN, 64, [&, t](uint64_t i) {
        hits[t][i].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t)
    for (uint64_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[t][i].load(), 1u) << "thread " << t << " index " << i;
}

}  // namespace
