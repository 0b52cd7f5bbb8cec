#include "tcf/bulk_tcf.h"

#include <gtest/gtest.h>

#include "util/xorwow.h"

namespace gf::tcf {
namespace {

TEST(BulkTcf, SingleBatchNoFalseNegatives) {
  bulk_tcf<> f(1 << 16);
  auto keys = util::hashed_xorwow_items(f.capacity() * 9 / 10, 1);
  EXPECT_EQ(f.insert_bulk(keys), keys.size());
  EXPECT_EQ(f.count_contained(keys), keys.size());
  EXPECT_TRUE(f.validate());
}

TEST(BulkTcf, BlocksStaySortedAcrossBatches) {
  bulk_tcf<> f(1 << 14);
  util::xorwow seed_gen(9);
  uint64_t total = 0;
  for (int batch = 0; batch < 8; ++batch) {
    auto keys = util::hashed_xorwow_items(f.capacity() / 10, batch + 100);
    total += f.insert_bulk(keys);
    ASSERT_TRUE(f.validate()) << "batch " << batch;
    ASSERT_EQ(f.count_contained(keys), keys.size()) << "batch " << batch;
  }
  EXPECT_EQ(f.size(), total);
}

TEST(BulkTcf, FalsePositiveRateMatchesLargerBlocks) {
  // Paper §4.2: "The bulk filter has an error rate of 0.3% with a block
  // size of 128 and ... 16 bits per item."
  bulk_tcf<> f(1 << 16);
  auto keys = util::hashed_xorwow_items(f.capacity() * 9 / 10, 2);
  f.insert_bulk(keys);
  auto absent = util::hashed_xorwow_items(300000, 3);
  double fp = static_cast<double>(f.count_contained(absent)) /
              static_cast<double>(absent.size());
  EXPECT_GT(fp, 0.001);
  EXPECT_LT(fp, 0.006);  // ~0.3-0.4%
}

TEST(BulkTcf, EraseBatchCompactsBlocks) {
  bulk_tcf<> f(1 << 14);
  auto keys = util::hashed_xorwow_items(f.capacity() * 8 / 10, 4);
  ASSERT_EQ(f.insert_bulk(keys), keys.size());
  uint64_t removed = f.erase_bulk(keys);
  EXPECT_TRUE(f.validate());
  EXPECT_GE(removed, keys.size() * 99 / 100);  // aliasing bound
  EXPECT_EQ(f.size(), keys.size() - removed);
  // Freed space is reusable.
  auto fresh = util::hashed_xorwow_items(f.capacity() * 8 / 10, 5);
  EXPECT_EQ(f.insert_bulk(fresh), fresh.size());
  EXPECT_TRUE(f.validate());
}

TEST(BulkTcf, PartialEraseLeavesOthersIntact) {
  bulk_tcf<> f(1 << 14);
  auto keys = util::hashed_xorwow_items(f.capacity() / 2, 6);
  std::vector<uint64_t> first(keys.begin(), keys.begin() + keys.size() / 2);
  std::vector<uint64_t> second(keys.begin() + keys.size() / 2, keys.end());
  f.insert_bulk(keys);
  f.erase_bulk(first);
  // The second half must still be fully present (minus rare aliasing).
  EXPECT_GE(f.count_contained(second), second.size() * 99 / 100);
  EXPECT_TRUE(f.validate());
}

TEST(BulkTcf, DuplicatesWithinBatchStored) {
  bulk_tcf<> f(1 << 12);
  std::vector<uint64_t> keys(100, 777);
  EXPECT_EQ(f.insert_bulk(keys), 100u);
  EXPECT_EQ(f.size(), 100u);
  EXPECT_TRUE(f.contains(777));
  EXPECT_TRUE(f.validate());
  EXPECT_EQ(f.erase_bulk(keys), 100u);
  EXPECT_FALSE(f.contains(777));
}

TEST(BulkTcf, EmptyBatchIsNoop) {
  bulk_tcf<> f(1 << 10);
  EXPECT_EQ(f.insert_bulk({}), 0u);
  EXPECT_EQ(f.erase_bulk({}), 0u);
  EXPECT_EQ(f.count_contained({}), 0u);
  EXPECT_TRUE(f.validate());
}

TEST(BulkTcf, SmallerBlockVariant) {
  bulk_tcf<16, 64> f(1 << 14);
  auto keys = util::hashed_xorwow_items(f.capacity() * 85 / 100, 7);
  EXPECT_EQ(f.insert_bulk(keys), keys.size());
  EXPECT_EQ(f.count_contained(keys), keys.size());
  EXPECT_TRUE(f.validate());
}

TEST(BulkTcf, EnumerationMatchesSizeAndSortedness) {
  bulk_tcf<> f(1 << 13);
  auto keys = util::hashed_xorwow_items(f.capacity() * 8 / 10, 9);
  ASSERT_EQ(f.insert_bulk(keys), keys.size());
  uint64_t entries = 0;
  uint64_t prev_block = 0;
  uint16_t prev_fp = 0;
  f.for_each([&](uint64_t block, uint16_t fp) {
    if (entries > 0 && block == prev_block && block < f.num_blocks()) {
      EXPECT_LE(prev_fp, fp);  // sorted within each block
    }
    prev_block = block;
    prev_fp = fp;
    ++entries;
  });
  EXPECT_EQ(entries, f.size());
}

TEST(BulkTcf, OverfillReportsFailures) {
  // 110% of capacity cannot fit; the filter must report, not corrupt.
  bulk_tcf<> f(1 << 10);
  auto keys = util::hashed_xorwow_items(f.capacity() * 11 / 10, 8);
  uint64_t placed = f.insert_bulk(keys);
  EXPECT_LT(placed, keys.size());
  EXPECT_GE(placed, keys.size() * 8 / 10);
  EXPECT_TRUE(f.validate());
}

TEST(BulkTcf, BackingDisabledHasNoFalseNegatives) {
  // With the backing table off, the phase-C residue must fail rather than
  // land in a table that contains() never probes: every key reported as
  // placed is answered.
  tcf_config cfg;
  cfg.enable_backing = false;
  bulk_tcf<> f(1 << 16, cfg);
  auto keys = util::hashed_xorwow_items(f.capacity() * 97 / 100, 16);
  uint64_t placed = f.insert_bulk(keys);
  EXPECT_LT(placed, keys.size());  // the residue is refused, not hidden
  EXPECT_GE(f.count_contained(keys), placed);
  EXPECT_EQ(f.backing_size(), 0u);
  EXPECT_EQ(f.size(), placed);
  EXPECT_TRUE(f.validate());
}

/// contains_each(batch) against the contains() loop, on batches of half
/// stored keys and half never-inserted ones, every third key repeating an
/// earlier one, at the pipeline's edge sizes.  The sink must see every
/// index once, in order.
void expect_contains_each_matches(const bulk_tcf<>& f,
                                  std::span<const uint64_t> stored,
                                  uint64_t seed) {
  constexpr size_t kDist = bulk_tcf<>::kPrefetchDistance;
  for (size_t n : {size_t{0}, size_t{1}, kDist - 1, kDist, kDist + 1,
                   size_t{4096}}) {
    auto absent = util::hashed_xorwow_items(n + 1, seed + n);
    std::vector<uint64_t> batch(n);
    for (size_t i = 0; i < n; ++i)
      batch[i] = i % 2 ? absent[i] : stored[(i * 7919) % stored.size()];
    for (size_t i = 3; i < n; i += 3) batch[i] = batch[i / 3];
    std::vector<int> got;
    f.contains_each(batch, [&](size_t i, bool hit) {
      ASSERT_EQ(i, got.size()) << "batch of " << n;
      got.push_back(hit);
    });
    ASSERT_EQ(got.size(), n);
    uint64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], f.contains(batch[i])) << "key " << i << " of " << n;
      hits += got[i];
    }
    EXPECT_EQ(f.count_contained(batch), hits) << "batch of " << n;
  }
}

TEST(BulkTcf, ContainsEachMatchesContains) {
  for (unsigned load : {30u, 60u, 95u}) {
    SCOPED_TRACE(load);
    bulk_tcf<> f(1 << 14);
    auto keys = util::hashed_xorwow_items(f.capacity() * load / 100, 20 + load);
    ASSERT_EQ(f.insert_bulk(keys), keys.size());
    if (load == 95) {
      ASSERT_GT(f.backing_size(), 0u);  // backing residents are probed
    }
    expect_contains_each_matches(f, keys, 900 + load);
  }
  tcf_config cfg;
  cfg.enable_backing = false;
  bulk_tcf<> f(1 << 14, cfg);
  auto keys = util::hashed_xorwow_items(f.capacity() * 95 / 100, 21);
  f.insert_bulk(keys);
  ASSERT_EQ(f.backing_size(), 0u);
  expect_contains_each_matches(f, keys, 1000);
}

}  // namespace
}  // namespace gf::tcf
