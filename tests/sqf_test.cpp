#include "baselines/sqf.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/xorwow.h"

namespace gf::baselines {
namespace {

TEST(Sqf, ConstructorEnforcesArtifactLimits) {
  // Paper §3.2/§6: fixed remainder widths, q + r < 32.
  EXPECT_NO_THROW(sqf(16, 5));
  EXPECT_NO_THROW(sqf(18, 13));
  EXPECT_THROW(sqf(16, 8), std::invalid_argument);   // unsupported r
  EXPECT_THROW(sqf(27, 5), std::invalid_argument);   // q + r >= 32
  EXPECT_THROW(sqf(19, 13), std::invalid_argument);
}

TEST(Sqf, InsertQueryBasic) {
  sqf f(12, 5);
  EXPECT_TRUE(f.insert(42));
  EXPECT_TRUE(f.contains(42));
  EXPECT_EQ(f.size(), 1u);
  EXPECT_TRUE(f.validate());
}

TEST(Sqf, DuplicateInsertsAreSetSemantics) {
  sqf f(12, 5);
  EXPECT_TRUE(f.insert(7));
  EXPECT_TRUE(f.insert(7));  // accepted but deduplicated
  EXPECT_EQ(f.size(), 1u);
  EXPECT_TRUE(f.erase(7));
  EXPECT_FALSE(f.contains(7));
}

TEST(Sqf, NoFalseNegativesSequential) {
  sqf f(14, 13);
  auto keys = util::hashed_xorwow_items(f.num_slots() * 8 / 10, 1);
  for (uint64_t k : keys) ASSERT_TRUE(f.insert(k));  // padding absorbs tails
  for (uint64_t k : keys) ASSERT_TRUE(f.contains(k));
  EXPECT_TRUE(f.validate());
}

TEST(Sqf, FalsePositiveRateIsFixedByRemainderWidth) {
  // 5-bit remainders: eps ~ alpha/32 — the "almost an order-of-magnitude
  // higher" rate the paper highlights (§6, Table 2: 1.17%... at their
  // load; here alpha=0.8 gives ~2.5%).
  sqf f(16, 5);
  auto keys = util::hashed_xorwow_items(f.num_slots() * 8 / 10, 2);
  f.insert_bulk(keys);
  auto absent = util::hashed_xorwow_items(200000, 3);
  double fp = static_cast<double>(f.count_contained(absent)) /
              static_cast<double>(absent.size());
  EXPECT_GT(fp, 0.01);
  EXPECT_LT(fp, 0.04);

  sqf g(14, 13);
  auto keys2 = util::hashed_xorwow_items(g.num_slots() * 8 / 10, 4);
  g.insert_bulk(keys2);
  double fp13 = static_cast<double>(g.count_contained(absent)) /
                static_cast<double>(absent.size());
  EXPECT_LT(fp13, 0.002);  // 13-bit remainders: ~0.01%
}

TEST(Sqf, BulkInsertMatchesSequential) {
  auto keys = util::hashed_xorwow_items((1u << 14) * 7 / 10, 5);
  sqf seq(14, 5), blk(14, 5);
  for (uint64_t k : keys) seq.insert(k);
  blk.insert_bulk(keys);
  EXPECT_EQ(seq.size(), blk.size());
  for (uint64_t k : keys) {
    ASSERT_TRUE(blk.contains(k));
  }
  EXPECT_TRUE(blk.validate());
}

TEST(Sqf, SmallBatchIntoManyRegionsMatchesSequential) {
  // 2^20 slots = 128+ regions and a 500-key batch: the stride-4 phases
  // launch over the touched regions only, and the filter answers exactly
  // as a sequentially built one.
  auto keys = util::hashed_xorwow_items(500, 21);
  auto absent = util::hashed_xorwow_items(5000, 22);
  sqf seq(20, 5), blk(20, 5);
  for (uint64_t k : keys) seq.insert(k);
  EXPECT_EQ(blk.insert_bulk(keys), seq.size());
  EXPECT_EQ(blk.size(), seq.size());
  EXPECT_TRUE(blk.validate());
  for (uint64_t k : keys) ASSERT_TRUE(blk.contains(k));
  for (uint64_t k : absent) ASSERT_EQ(blk.contains(k), seq.contains(k)) << k;
  EXPECT_EQ(blk.count_contained(absent), seq.count_contained(absent));
}

TEST(Sqf, DeleteRestoresAbsence) {
  sqf f(13, 13);
  auto keys = util::hashed_xorwow_items(f.num_slots() / 2, 6);
  f.insert_bulk(keys);
  ASSERT_TRUE(f.validate());
  std::vector<uint64_t> half(keys.begin(), keys.begin() + keys.size() / 2);
  uint64_t removed = f.erase_bulk(half);
  EXPECT_GE(removed, half.size() * 95 / 100);  // fp-aliased keys may dedup
  EXPECT_TRUE(f.validate());
  // Unremoved half still present.
  uint64_t still = 0;
  for (size_t i = half.size(); i < keys.size(); ++i)
    still += f.contains(keys[i]);
  EXPECT_GE(still, (keys.size() - half.size()) * 99 / 100);
}

TEST(Sqf, ChurnKeepsInvariants) {
  sqf f(10, 13);
  util::xorwow rng(9);
  std::vector<uint64_t> live;
  for (int step = 0; step < 4000; ++step) {
    if (live.size() < 600 || rng.next_below(2)) {
      uint64_t k = rng.next64();
      if (f.insert(k)) live.push_back(k);
    } else {
      size_t at = rng.next_below(live.size());
      f.erase(live[at]);
      live.erase(live.begin() + at);
    }
    if (step % 500 == 499) {
      ASSERT_TRUE(f.validate()) << step;
    }
  }
  for (uint64_t k : live) ASSERT_TRUE(f.contains(k));
}

TEST(Sqf, NearFullRefusesWithoutCorruption) {
  // q=12/r=5: the 2^17 fingerprint space dwarfs the 4096+8192 physical
  // slots, so sustained inserts must eventually be refused.
  sqf f(12, 5);
  util::xorwow rng(10);
  bool refused = false;
  for (int i = 0; i < 400000 && !refused; ++i)
    refused = !f.insert(rng.next64());
  EXPECT_TRUE(refused);  // stops accepting, never corrupts
  EXPECT_TRUE(f.validate());
}

}  // namespace
}  // namespace gf::baselines
