#include "tcf/tcf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/launch.h"
#include "gpu/thread_pool.h"
#include "util/hash.h"
#include "util/xorwow.h"

namespace gf::tcf {
namespace {

TEST(TcfPoint, InsertQueryBasic) {
  point_tcf f(1 << 12);
  EXPECT_TRUE(f.insert(42));
  EXPECT_TRUE(f.contains(42));
  EXPECT_EQ(f.size(), 1u);
  EXPECT_FALSE(f.contains(43));  // (w.h.p.; fp rate ~1e-3)
}

TEST(TcfPoint, NoFalseNegativesTo90PercentLoad) {
  // Paper §6.1: "The TCF can achieve 90% load factor using the backing
  // table."  Every inserted key must be found.
  point_tcf f(1 << 16);
  auto keys = util::hashed_xorwow_items(f.capacity() * 9 / 10, 1);
  EXPECT_EQ(f.insert_bulk(keys), keys.size());
  EXPECT_EQ(f.count_contained(keys), keys.size());
  EXPECT_NEAR(f.load_factor(), 0.9, 0.01);
}

TEST(TcfPoint, FalsePositiveRateMatchesFormula) {
  // FP rate = 2B/2^f (paper §4.1): for <16,32> that is ~0.098%.
  point_tcf f(1 << 16);
  auto keys = util::hashed_xorwow_items(f.capacity() * 9 / 10, 2);
  f.insert_bulk(keys);
  auto absent = util::hashed_xorwow_items(400000, 3);
  double fp = static_cast<double>(f.count_contained(absent)) /
              static_cast<double>(absent.size());
  EXPECT_LT(fp, point_tcf::theoretical_fp_rate() * 1.6);
  EXPECT_GT(fp, point_tcf::theoretical_fp_rate() * 0.4);
}

TEST(TcfPoint, DeletionMultisetInvariant) {
  // Deleting every inserted key empties the filter *as a multiset*:
  // deletes may alias across fingerprint-colliding keys (standard
  // fingerprint-filter semantics), but deleted + still-present == n.
  point_tcf f(1 << 14);
  auto keys = util::hashed_xorwow_items(f.capacity() * 8 / 10, 4);
  ASSERT_EQ(f.insert_bulk(keys), keys.size());
  uint64_t deleted = f.erase_bulk(keys);
  EXPECT_EQ(f.size(), keys.size() - deleted);
  // Aliasing is rare: ~fp_rate of deletions at most.
  EXPECT_GE(deleted, keys.size() * 995 / 1000);
  // Whatever remains undeleted is still queryable (no corruption).
  EXPECT_LE(f.count_contained(keys),
            (keys.size() - deleted) + keys.size() / 200);
}

TEST(TcfPoint, DeleteThenReinsertReusesTombstones) {
  point_tcf f(1 << 10);
  auto keys = util::hashed_xorwow_items(f.capacity() * 8 / 10, 5);
  ASSERT_EQ(f.insert_bulk(keys), keys.size());
  ASSERT_GE(f.erase_bulk(keys), keys.size() * 99 / 100);
  // A full second round must fit: tombstones count as free slots.
  auto fresh = util::hashed_xorwow_items(f.capacity() * 8 / 10, 6);
  EXPECT_EQ(f.insert_bulk(fresh), fresh.size());
  EXPECT_EQ(f.count_contained(fresh), fresh.size());
}

TEST(TcfPoint, ValueAssociationRoundTrip) {
  kv_tcf f(1 << 12);
  for (uint64_t k = 0; k < 2000; ++k)
    ASSERT_TRUE(f.insert(k * 31 + 7, static_cast<uint16_t>(k % 16)));
  // Keys sharing a (block, fingerprint) pair alias each other's values —
  // the inherent 12-bit-fingerprint collision rate (~4 pairs expected at
  // this occupancy).  Presence must be perfect; values nearly so.
  uint64_t wrong = 0;
  for (uint64_t k = 0; k < 2000; ++k) {
    auto v = f.find_value(k * 31 + 7);
    ASSERT_TRUE(v.has_value()) << k;
    wrong += *v != k % 16;
  }
  EXPECT_LE(wrong, 12u);
  EXPECT_FALSE(f.find_value(0xdead0000beefull).has_value());
}

TEST(TcfPoint, ShortcutOptimizationCounters) {
  // At low load, the shortcut path should handle nearly all inserts
  // (fill < 0.75 cutoff, paper §4.1).
  tcf_config cfg;
  point_tcf f(1 << 14, cfg);
  auto keys = util::hashed_xorwow_items(f.capacity() / 2, 7);
  f.insert_bulk(keys);
  EXPECT_EQ(f.count_contained(keys), keys.size());
#if defined(GF_ENABLE_COUNTERS)
  // With counters on, shortcut_inserts dominates at 50% load.
  EXPECT_GT(util::counters().shortcut_inserts.load(), keys.size() / 2);
#endif
}

TEST(TcfPoint, DisablingBackingLowersAchievableLoad) {
  // Paper §6.1: "Without the backing table the TCF could only get to
  // 79.6% load factor before failing to insert an item."  The effect is
  // block-size dependent: the paper's regime matches 16-slot blocks
  // (measured here: ~0.84 without backing, ~0.95 with); 32-slot blocks
  // shift both numbers up.  See EXPERIMENTS.md.
  tcf_config no_backing;
  no_backing.enable_backing = false;
  tcf<16, 16> f(1 << 14, no_backing);
  auto keys = util::hashed_xorwow_items(f.capacity(), 8);
  uint64_t inserted = 0;
  for (uint64_t k : keys) {
    if (!f.insert(k)) break;
    ++inserted;
  }
  double achieved = static_cast<double>(inserted) /
                    static_cast<double>(f.capacity());
  EXPECT_LT(achieved, 0.92);
  EXPECT_GT(achieved, 0.60);

  tcf_config with_backing;
  tcf<16, 16> g(1 << 14, with_backing);
  uint64_t inserted2 = 0;
  for (uint64_t k : keys) {
    if (!g.insert(k)) break;
    ++inserted2;
  }
  EXPECT_GT(inserted2, inserted);  // the backing table buys load factor
}

TEST(TcfPoint, ConcurrentMixedInsertQuery) {
  // Queries racing with inserts must never crash and must see all items
  // once the insert phase is quiesced.
  point_tcf f(1 << 14);
  auto keys = util::hashed_xorwow_items(f.capacity() / 2, 9);
  f.insert_bulk(keys);  // internally parallel
  EXPECT_EQ(f.count_contained(keys), keys.size());
}

TEST(TcfPoint, CooperativeGroupSizesAllWork) {
  for (unsigned cg : {1u, 2u, 4u, 8u, 16u, 32u}) {
    tcf_config cfg;
    cfg.cg_size = cg;
    point_tcf f(1 << 10, cfg);
    auto keys = util::hashed_xorwow_items(f.capacity() * 3 / 4, 100 + cg);
    ASSERT_EQ(f.insert_bulk(keys), keys.size()) << "cg=" << cg;
    ASSERT_EQ(f.count_contained(keys), keys.size()) << "cg=" << cg;
  }
}

TEST(TcfPoint, EnumerationSeesEveryEntry) {
  // §1: the TCF "supports deletions, enumeration, and associating small
  // values with items".
  kv_tcf f(1 << 12);
  for (uint64_t k = 0; k < 1500; ++k)
    ASSERT_TRUE(f.insert(k * 131 + 1, static_cast<uint16_t>(k % 7)));
  uint64_t entries = 0;
  uint64_t value_histogram[16] = {};
  f.for_each([&](uint64_t block, uint16_t fp, uint16_t value) {
    ++entries;
    EXPECT_LE(block, f.capacity() / kv_tcf::kSlotsPerBlock);
    EXPECT_NE(fp, 0);  // remap keeps fingerprints off the sentinels
    ++value_histogram[value & 0xF];
  });
  EXPECT_EQ(entries, f.size());
  // Values 0..6 in near-equal proportion; 7..15 never stored.
  for (int v = 0; v < 7; ++v) EXPECT_GT(value_histogram[v], 150u);
  for (int v = 7; v < 16; ++v) EXPECT_EQ(value_histogram[v], 0u);
  // Deletions shrink the enumeration.
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(f.erase(k * 131 + 1));
  uint64_t after = 0;
  f.for_each([&](uint64_t, uint16_t, uint16_t) { ++after; });
  EXPECT_EQ(after, f.size());
}

TEST(TcfPoint, MemoryAccountingSane) {
  point_tcf f(1 << 16);
  // 16-bit slots: ~2 bytes/slot + 1% backing.
  EXPECT_GE(f.memory_bytes(), (1u << 16) * 2u);
  EXPECT_LE(f.memory_bytes(), (1u << 16) * 2u * 11 / 10);
  auto keys = util::hashed_xorwow_items(f.capacity() * 9 / 10, 10);
  f.insert_bulk(keys);
  double bpi = f.bits_per_item(keys.size());
  EXPECT_GT(bpi, 16.0);
  EXPECT_LT(bpi, 19.5);  // paper Table 2 reports 16.7 for the TCF
}

TEST(TcfPoint, ContainsEachMatchesContainsWithBackingTable) {
  // Filled until the first refusal, some keys live in the backing table,
  // so the batched probe must fall through both blocks to it exactly as
  // contains() does.  The 12-bit packed variant checks the pipeline on
  // the straddling layout.
  const auto pool = util::hashed_xorwow_items(1 << 14, 17);
  const auto absent = util::hashed_xorwow_items(1 << 14, 18);
  auto check = [&](auto& filter) {
    std::vector<uint64_t> batch;
    for (size_t i = 0; i < pool.size() && filter.insert(pool[i]); ++i) {
      batch.push_back(pool[i]);
      batch.push_back(absent[i]);
    }
    ASSERT_GT(filter.backing_size(), 0u);
    constexpr size_t d = point_tcf::kPrefetchDistance;
    for (size_t n : {size_t{0}, size_t{1}, d - 1, d, d + 1, batch.size()}) {
      const std::span<const uint64_t> part(batch.data(), n);
      size_t calls = 0;
      filter.contains_each(part, [&](size_t i, bool hit) {
        ASSERT_EQ(i, calls++);
        ASSERT_EQ(hit, filter.contains(part[i])) << "n=" << n << " i=" << i;
      });
      EXPECT_EQ(calls, n);
    }
  };
  point_tcf f(1 << 14);
  check(f);
  tcf_12_16 g(1 << 14);
  check(g);
}

std::string saved(const point_tcf& f) {
  std::ostringstream out;
  f.save(out);
  return out.str();
}

point_tcf clone(const point_tcf& f) {
  std::istringstream in(saved(f));
  return point_tcf::load(in);
}

/// The order insert_bulk_sorted's slab walks a batch in, as positions in
/// the batch: stable by (primary block, fingerprint), derived as the
/// filter hashes a key.  With by_block_only it is insert_counted_sorted's
/// order instead: stable by primary block.
std::vector<size_t> slab_order(const point_tcf& f,
                               const std::vector<uint64_t>& keys,
                               bool by_block_only = false) {
  const uint64_t blocks = f.capacity() / point_tcf::kSlotsPerBlock;
  auto sort_key = [&](uint64_t k) {
    const uint64_t h1 = util::murmur64(k), h2 = util::mix64_b(k);
    const uint64_t b1 = util::fast_range(h1, blocks);
    if (by_block_only) return b1;
    const uint16_t fp =
        remap_fingerprint<point_tcf::kFpBits,
                          point_tcf::block_type::kNeedsNonzeroNibble>(
            h1 ^ (h1 >> 32) ^ (h2 << 13));
    return (b1 << 16) | fp;
  };
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sort_key(keys[a]) < sort_key(keys[b]);
  });
  return order;
}

/// The point loop every deduplicating batch insert must match: each run
/// of equal adjacent keys is inserted once and answers all its copies.
uint64_t insert_runs(point_tcf& f, const std::vector<uint64_t>& keys) {
  uint64_t ok = 0;
  bool run_ok = false;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || keys[i] != keys[i - 1]) run_ok = f.insert(keys[i]);
    ok += run_ok ? 1 : 0;
  }
  return ok;
}

/// A batch of n keys drawn from `distinct` fresh keys, each repeated.
std::vector<uint64_t> duplicate_heavy(size_t n, size_t distinct,
                                      uint64_t seed) {
  const auto pool = util::hashed_xorwow_items(distinct, seed);
  std::vector<uint64_t> batch(n);
  for (size_t i = 0; i < n; ++i) batch[i] = pool[(i * 7 + i / 3) % distinct];
  return batch;
}

/// Every pipelined batch write on a filter near 0.9 load against the point
/// loop it replaces: same return value, same save() bytes.  Must run on a
/// serial path, where the batch calls apply keys in their own order.
void check_pipelined_writes_match_point_loop() {
  constexpr size_t d = point_tcf::kPrefetchDistance;
  const size_t sizes[] = {0, 1, d - 1, d, d + 1, 3 * d + 5};
  for (bool backing : {true, false}) {
    SCOPED_TRACE(backing ? "backing on" : "backing off");
    tcf_config cfg;
    cfg.enable_backing = backing;
    point_tcf base(1 << 12, cfg);
    // Past 0.9 load, and with backing on until a few keys overflow to the
    // backing table, so the batches below take secondary-block and
    // backing-table inserts.
    std::vector<uint64_t> fill;
    for (uint64_t k : util::hashed_xorwow_items(base.capacity(), 40)) {
      if (fill.size() >= base.capacity() * 9 / 10 &&
          (!backing || base.backing_size() >= 8))
        break;
      if (base.insert(k)) fill.push_back(k);
    }
    EXPECT_GT(base.load_factor(), 0.89);
    if (backing) {
      EXPECT_GE(base.backing_size(), 8u);
    }
    const auto fresh = util::hashed_xorwow_items(4096, 41);

    // Two filters from the same state: `bulk` takes the batch call,
    // `point` the loop; both must end byte-identical.
    auto expect_same = [&](const char* what, size_t n, auto&& bulk_call,
                           auto&& point_loop) {
      point_tcf bulk = clone(base), point = clone(base);
      EXPECT_EQ(bulk_call(bulk), point_loop(point)) << what << " n=" << n;
      EXPECT_TRUE(saved(bulk) == saved(point)) << what << " n=" << n;
    };

    for (size_t n : sizes) {
      const std::vector<uint64_t> batch(fresh.begin(), fresh.begin() + n);
      expect_same(
          "insert_bulk", n, [&](point_tcf& f) { return f.insert_bulk(batch); },
          [&](point_tcf& f) {
            uint64_t ok = 0;
            for (uint64_t k : batch) ok += f.insert(k);
            return ok;
          });
      // Erase: alternate stored keys with misses.
      std::vector<uint64_t> mixed;
      for (size_t i = 0; i < n; ++i)
        mixed.push_back(i % 2 ? fresh[4095 - i] : fill[i * 37 % fill.size()]);
      expect_same(
          "erase_bulk", n, [&](point_tcf& f) { return f.erase_bulk(mixed); },
          [&](point_tcf& f) {
            uint64_t ok = 0;
            for (uint64_t k : mixed) ok += f.erase(k);
            return ok;
          });
      // Counted: distinct keys, in batch order below the slab size.
      std::vector<uint64_t> counts(n);
      for (size_t i = 0; i < n; ++i) counts[i] = 1 + i % 5;
      expect_same(
          "insert_counted_sorted", n,
          [&](point_tcf& f) { return f.insert_counted_sorted(batch, counts); },
          [&](point_tcf& f) {
            uint64_t ok = 0;
            for (size_t i = 0; i < n; ++i)
              if (f.insert(batch[i])) ok += counts[i];
            return ok;
          });
      // Duplicate-heavy below the slab size: the serial sort-and-dedup.
      const auto dups = duplicate_heavy(n, n / 4 + 1, 42 + n);
      expect_same(
          "insert_bulk_sorted (small)", n,
          [&](point_tcf& f) { return f.insert_bulk_sorted(dups); },
          [&](point_tcf& f) {
            auto sorted = dups;
            std::sort(sorted.begin(), sorted.end());
            return insert_runs(f, sorted);
          });
    }

    // Slab loops: batches past the slab minimum and past one launch grain.
    for (size_t n : {size_t{300}, size_t{2000}}) {
      const auto dups = duplicate_heavy(n, n / 6, 50 + n);
      expect_same(
          "insert_bulk_sorted (slab)", n,
          [&](point_tcf& f) { return f.insert_bulk_sorted(dups); },
          [&](point_tcf& f) {
            std::vector<uint64_t> sorted;
            for (size_t i : slab_order(f, dups)) sorted.push_back(dups[i]);
            return insert_runs(f, sorted);
          });
      const std::vector<uint64_t> batch(fresh.begin(), fresh.begin() + n);
      std::vector<uint64_t> counts(n);
      for (size_t i = 0; i < n; ++i) counts[i] = 1 + i % 3;
      expect_same(
          "insert_counted_sorted (slab)", n,
          [&](point_tcf& f) { return f.insert_counted_sorted(batch, counts); },
          [&](point_tcf& f) {
            uint64_t ok = 0;
            for (size_t i : slab_order(f, batch, /*by_block_only=*/true))
              if (f.insert(batch[i])) ok += counts[i];
            return ok;
          });
      expect_same(
          "insert_bulk (grain)", n,
          [&](point_tcf& f) { return f.insert_bulk(batch); },
          [&](point_tcf& f) {
            uint64_t ok = 0;
            for (uint64_t k : batch) ok += f.insert(k);
            return ok;
          });
    }
  }
}

TEST(TcfPoint, PipelinedWritesMatchPointLoop) {
  // At pool width 1 every batch call is serial on the caller (the
  // tcf_point_test_w1 registration runs this binary at that width).
  if (gpu::thread_pool::instance().size() == 1)
    check_pipelined_writes_match_point_loop();
  // Inside a pool launch, as the store's per-shard launch calls the
  // filter, every nested launch runs inline on the worker.
  gpu::launch_ranges(1, [](unsigned, uint64_t, uint64_t) {
    check_pipelined_writes_match_point_loop();
  });
}

}  // namespace
}  // namespace gf::tcf
