// The §1 generalization: even-odd bulk insertion on a Robin Hood hash
// table.  Differential-tested against std::unordered_map.
#include "par/even_odd_table.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "util/xorwow.h"

namespace gf::par {
namespace {

TEST(EvenOddTable, PointInsertFind) {
  even_odd_table t(1 << 12);
  EXPECT_FALSE(t.find(42).has_value());
  EXPECT_TRUE(t.insert(42, 7));
  EXPECT_EQ(t.find(42).value(), 7u);
  EXPECT_TRUE(t.insert(42, 9));  // overwrite
  EXPECT_EQ(t.find(42).value(), 9u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(EvenOddTable, PointMatchesReference) {
  even_odd_table t(1 << 14);
  std::unordered_map<uint64_t, uint64_t> ref;
  util::xorwow rng(1);
  for (int i = 0; i < 10000; ++i) {
    uint64_t k = rng.next_below(6000);
    uint64_t v = rng.next64();
    ASSERT_TRUE(t.insert(k, v));
    ref[k] = v;
  }
  EXPECT_EQ(t.size(), ref.size());
  for (auto& [k, v] : ref) ASSERT_EQ(t.find(k).value(), v) << k;
  EXPECT_FALSE(t.find(~0ull - 5).has_value());
}

TEST(EvenOddTable, BulkMatchesPoint) {
  auto keys = util::hashed_xorwow_items(100000, 2);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i;

  even_odd_table bulk(keys.size() * 3 / 2);
  auto stats = bulk.bulk_insert(keys, values);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.inserted, keys.size());

  even_odd_table point(keys.size() * 3 / 2);
  for (size_t i = 0; i < keys.size(); ++i)
    ASSERT_TRUE(point.insert(keys[i], values[i]));

  EXPECT_EQ(bulk.size(), point.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(bulk.find(keys[i]).value(), i);
    ASSERT_EQ(point.find(keys[i]).value(), i);
  }
}

TEST(EvenOddTable, SmallBatchIntoManyRegionsMatchesPoint) {
  // 2^20 slots = 128+ regions and a 300-key batch: the phases launch over
  // the few touched regions, and the result equals a point-built table.
  auto keys = util::hashed_xorwow_items(300, 19);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = i * 7;

  even_odd_table bulk(1 << 20), point(1 << 20);
  auto stats = bulk.bulk_insert(keys, values);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.inserted, keys.size());
  for (size_t i = 0; i < keys.size(); ++i)
    ASSERT_TRUE(point.insert(keys[i], values[i]));
  EXPECT_EQ(bulk.size(), point.size());
  for (size_t i = 0; i < keys.size(); ++i)
    ASSERT_EQ(bulk.find(keys[i]), point.find(keys[i])) << i;
  auto absent = util::hashed_xorwow_items(300, 20);
  for (uint64_t k : absent) ASSERT_FALSE(bulk.find(k).has_value());
}

TEST(EvenOddTable, BulkDuplicateKeysLastWriteWins) {
  // Within a batch duplicates resolve to *some* instance's value (phased
  // order is deterministic per region); across batches the later batch
  // overwrites.
  even_odd_table t(1 << 12);
  std::vector<uint64_t> keys(100, 5);
  std::vector<uint64_t> values(100);
  for (size_t i = 0; i < 100; ++i) values[i] = i;
  auto stats = t.bulk_insert(keys, values);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.find(5).has_value());
  std::vector<uint64_t> k2{5}, v2{777};
  t.bulk_insert(k2, v2);
  EXPECT_EQ(t.find(5).value(), 777u);
}

TEST(EvenOddTable, HighLoadDefersButCompletes) {
  auto keys = util::hashed_xorwow_items(90000, 3);
  std::vector<uint64_t> values(keys.size(), 1);
  even_odd_table t(100000);  // ~82% load after region rounding
  auto stats = t.bulk_insert(keys, values);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(t.size(), keys.size());
  for (uint64_t k : keys) ASSERT_TRUE(t.find(k).has_value());
}

TEST(EvenOddTable, RobinHoodEarlyExitCorrect) {
  // Dense region: negative lookups must stay correct under displacement.
  even_odd_table t(1 << 12);
  auto keys = util::hashed_xorwow_items((1 << 12) * 3 / 4, 4);
  std::vector<uint64_t> values(keys.size(), 9);
  t.bulk_insert(keys, values);
  auto absent = util::hashed_xorwow_items(20000, 5);
  for (uint64_t k : absent) ASSERT_FALSE(t.find(k).has_value());
}

}  // namespace
}  // namespace gf::par
