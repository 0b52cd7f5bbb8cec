// The even-odd bulk API (paper §5.3-5.4).
#include "gqf/gqf_bulk.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "util/xorwow.h"
#include "util/zipf.h"

namespace gf::gqf {
namespace {

TEST(GqfBulk, OneBigBatch) {
  gqf_filter<uint8_t> f(16, 8);
  auto keys = util::hashed_xorwow_items(f.num_slots() * 85 / 100, 1);
  auto stats = bulk_insert(f, keys);
  EXPECT_EQ(stats.inserted, keys.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(bulk_count_contained(f, keys), keys.size());
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
}

TEST(GqfBulk, ManySmallBatches) {
  gqf_filter<uint8_t> f(15, 8);
  uint64_t total = 0;
  std::string why;
  for (int b = 0; b < 10; ++b) {
    auto keys = util::hashed_xorwow_items(f.num_slots() * 8 / 100, 100 + b);
    auto stats = bulk_insert(f, keys);
    total += stats.inserted;
    ASSERT_EQ(stats.failed, 0u) << b;
    ASSERT_TRUE(f.validate(&why)) << "batch " << b << ": " << why;
    ASSERT_EQ(bulk_count_contained(f, keys), keys.size());
  }
  EXPECT_EQ(f.size(), total);
}

TEST(GqfBulk, BatchWithDuplicatesCountsThem) {
  gqf_filter<uint8_t> f(12, 8);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 100; ++i)
    for (int copy = 0; copy <= i % 5; ++copy) keys.push_back(i * 977);
  auto stats = bulk_insert(f, keys);
  EXPECT_EQ(stats.inserted, keys.size());
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(f.query(i * 977), static_cast<uint64_t>(i % 5 + 1)) << i;
}

TEST(GqfBulk, MapReduceMatchesPlainOnSkew) {
  auto data = util::zipfian_dataset(1 << 15, 1.5, 3);
  gqf_filter<uint8_t> plain(14, 8), mr(14, 8);
  auto s1 = bulk_insert(plain, data, /*map_reduce=*/false);
  auto s2 = bulk_insert(mr, data, /*map_reduce=*/true);
  EXPECT_EQ(s1.inserted, data.size());
  EXPECT_EQ(s2.inserted, data.size());
  std::map<uint64_t, uint64_t> ref;
  for (uint64_t k : data) ++ref[k];
  for (auto& [k, c] : ref) {
    ASSERT_GE(plain.query(k), c);
    ASSERT_EQ(plain.query(k), mr.query(k)) << k;
  }
  std::string why;
  EXPECT_TRUE(plain.validate(&why)) << why;
  EXPECT_TRUE(mr.validate(&why)) << why;
}

TEST(GqfBulk, QueryCountsPreserveOrder) {
  gqf_filter<uint8_t> f(12, 8);
  std::vector<uint64_t> keys = {10, 20, 10, 30, 10};
  bulk_insert(f, keys);
  auto counts = bulk_query_counts(f, std::vector<uint64_t>{10, 20, 30, 40});
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);
}

TEST(GqfBulk, BulkEraseRemovesBatch) {
  gqf_filter<uint8_t> f(15, 8);
  auto keys = util::hashed_xorwow_items(f.num_slots() * 7 / 10, 5);
  bulk_insert(f, keys);
  EXPECT_EQ(bulk_erase(f, keys), keys.size());
  EXPECT_EQ(f.size(), 0u);
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
  // Fully reusable afterwards.
  auto again = bulk_insert(f, keys);
  EXPECT_EQ(again.inserted, keys.size());
}

TEST(GqfBulk, PartialEraseKeepsRest) {
  gqf_filter<uint8_t> f(14, 8);
  auto keys = util::hashed_xorwow_items(f.num_slots() / 2, 7);
  std::vector<uint64_t> half(keys.begin(), keys.begin() + keys.size() / 2);
  bulk_insert(f, keys);
  EXPECT_EQ(bulk_erase(f, half), half.size());
  EXPECT_EQ(f.size(), keys.size() - half.size());
  for (size_t i = half.size(); i < keys.size(); ++i)
    ASSERT_TRUE(f.contains(keys[i]));
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
}

TEST(GqfBulk, NearCapacityDefersButCompletes) {
  // Push to 95% — the supported maximum (§5.2); deferred items must be
  // mopped up by the serial cleanup, with zero failures.
  gqf_filter<uint8_t> f(14, 8);
  auto keys = util::hashed_xorwow_items(f.num_slots() * 95 / 100, 9);
  auto stats = bulk_insert(f, keys);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.inserted, keys.size());
  EXPECT_EQ(bulk_count_contained(f, keys), keys.size());
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
}

TEST(GqfBulk, EmptyBatch) {
  gqf_filter<uint8_t> f(10, 8);
  auto stats = bulk_insert(f, {});
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_EQ(bulk_erase(f, {}), 0u);
}

TEST(GqfBulk, CountedBatchesViaMapReduce) {
  // The §5.4 pipeline end-to-end on a uniform-count dataset.
  auto data = util::uniform_count_dataset(100000, 50, 11);
  gqf_filter<uint8_t> f(15, 8);
  auto stats = bulk_insert(f, data, /*map_reduce=*/true);
  EXPECT_EQ(stats.inserted, data.size());
  std::map<uint64_t, uint64_t> ref;
  for (uint64_t k : data) ++ref[k];
  uint64_t exact = 0;
  for (auto& [k, c] : ref) exact += f.query(k) == c;
  EXPECT_GT(exact, ref.size() * 99 / 100);
}

TEST(GqfBulk, SmallBatchIntoManyRegionsMatchesPointBuilt) {
  // 2^20 slots = 128+ regions; a 600-key batch (every third key doubled)
  // touches a few hundred of them at most.  Bulk insert and bulk erase
  // must leave exactly the counts a point-built filter holds.
  gqf_filter<uint8_t> bulk(20, 8), point(20, 8);
  auto distinct = util::hashed_xorwow_items(400, 17);
  std::vector<uint64_t> batch;
  for (size_t i = 0; i < distinct.size(); ++i) {
    batch.push_back(distinct[i]);
    if (i % 3 == 0) batch.push_back(distinct[i]);
  }
  auto stats = bulk_insert(bulk, batch);
  EXPECT_EQ(stats.inserted, batch.size());
  for (uint64_t k : batch) ASSERT_TRUE(point.insert(k));
  std::string why;
  ASSERT_TRUE(bulk.validate(&why)) << why;
  EXPECT_EQ(bulk.size(), point.size());
  for (uint64_t k : distinct) ASSERT_EQ(bulk.query(k), point.query(k)) << k;

  std::vector<uint64_t> gone(batch.begin(), batch.begin() + batch.size() / 2);
  EXPECT_EQ(bulk_erase(bulk, gone), gone.size());
  for (uint64_t k : gone) ASSERT_TRUE(point.remove_hash(point.hash_of(k)));
  ASSERT_TRUE(bulk.validate(&why)) << why;
  EXPECT_EQ(bulk.size(), point.size());
  for (uint64_t k : distinct) ASSERT_EQ(bulk.query(k), point.query(k)) << k;
}

uint64_t fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t save_digest(const gqf_filter<uint8_t>& f) {
  std::ostringstream out;
  f.save(out);
  return fnv1a(out.str());
}

/// Distinct keys with their counts, filling `load_pct` % of a 2^16-slot
/// filter's canonical slots with heads and counter digits (8-bit
/// remainders: a count c > 1 takes ndigits(c - 1) digit slots).
struct counted_keys {
  std::vector<uint64_t> keys, counts;
};

enum class mix { distinct, duplicates, big_counts };

counted_keys make_counted_keys(unsigned load_pct, mix m) {
  const uint64_t target = (uint64_t{1} << 16) * load_pct / 100;
  const auto pool = util::hashed_xorwow_items(target, 3300 + load_pct);
  counted_keys s;
  for (uint64_t i = 0, used = 0; used < target; ++i) {
    uint64_t c = 1;
    if (m != mix::distinct && i % 4 == 1) c = 2 + i % 3;
    // Counts of 257 and up take two digits; the first key takes three.
    if (m == mix::big_counts && i % 128 == 0) c = i ? 257 + i % 300 : 70000;
    used += 1;
    for (uint64_t v = c - 1; v; v >>= 8) ++used;
    s.keys.push_back(pool[i]);
    s.counts.push_back(c);
  }
  return s;
}

// The GQF layout is canonical: the saved bytes depend only on the
// (fingerprint, count) multiset, not on the order or the path that built
// it.  The digests were recorded from the insert that checked its region
// limit in a separate pre-walk; every build path must reproduce them, at
// any pool width.
TEST(GqfBulk, EveryInsertPathBuildsTheCanonicalLayout) {
  struct expected {
    unsigned load_pct;
    mix m;
    uint64_t digest;
  };
  const expected cases[] = {
      {50, mix::distinct, 16744826010331881856ull},
      {50, mix::duplicates, 2146826323272229429ull},
      {50, mix::big_counts, 4731048882005810625ull},
      {85, mix::distinct, 10939038675453705818ull},
      {85, mix::duplicates, 5273823840798945031ull},
      {85, mix::big_counts, 6434837700367326584ull},
      {95, mix::distinct, 12181689714167184884ull},
      {95, mix::duplicates, 9132742585101704138ull},
      {95, mix::big_counts, 11719754157853479823ull},
  };
  for (const expected& e : cases) {
    const counted_keys s = make_counted_keys(e.load_pct, e.m);
    std::vector<uint64_t> copies;
    uint64_t total = 0;
    for (size_t i = 0; i < s.keys.size(); ++i) {
      copies.insert(copies.end(), s.counts[i], s.keys[i]);
      total += s.counts[i];
    }
    const std::string what = "load " + std::to_string(e.load_pct) +
                             " mix " + std::to_string(static_cast<int>(e.m));

    gqf_filter<uint8_t> point(16, 8), plain(16, 8), reduced(16, 8),
        counted(16, 8);
    for (size_t i = 0; i < s.keys.size(); ++i)
      ASSERT_TRUE(point.insert(s.keys[i], s.counts[i])) << what;
    EXPECT_EQ(bulk_insert(plain, copies, /*map_reduce=*/false).inserted, total)
        << what;
    EXPECT_EQ(bulk_insert(reduced, copies, /*map_reduce=*/true).inserted,
              total)
        << what;
    EXPECT_EQ(bulk_insert_counted(counted, s.keys, s.counts).inserted, total)
        << what;

    std::string why;
    EXPECT_TRUE(point.validate(&why)) << what << ": " << why;
    EXPECT_EQ(save_digest(point), e.digest) << what << " point";
    EXPECT_EQ(save_digest(plain), e.digest) << what << " bulk_insert";
    EXPECT_EQ(save_digest(reduced), e.digest) << what << " map_reduce";
    EXPECT_EQ(save_digest(counted), e.digest) << what << " counted";
  }
}

}  // namespace
}  // namespace gf::gqf
