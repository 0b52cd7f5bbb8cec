#include "gqf/gqf.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gqf/gqf_testing.h"
#include "util/xorwow.h"

namespace gf::gqf {
namespace {

TEST(GqfCore, EmptyFilterState) {
  gqf_filter<uint8_t> f(10, 8);
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.num_slots(), 1u << 10);
  EXPECT_FALSE(f.contains(42));
  EXPECT_EQ(f.query(42), 0u);
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
}

TEST(GqfCore, InsertQuerySingle) {
  gqf_filter<uint8_t> f(10, 8);
  EXPECT_TRUE(f.insert(42));
  EXPECT_TRUE(f.contains(42));
  EXPECT_EQ(f.query(42), 1u);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.distinct_items(), 1u);
}

TEST(GqfCore, HashPartitioning) {
  gqf_filter<uint16_t> f(12, 16);
  uint64_t h = f.hash_of(123456789);
  EXPECT_EQ((f.quotient_of(h) << 16) | f.remainder_of(h), h);
  EXPECT_LT(f.quotient_of(h), f.num_slots());
  EXPECT_EQ(f.fingerprint_bits(), 28u);
}

TEST(GqfCore, NoFalseNegativesAt85Load) {
  gqf_filter<uint8_t> f(14, 8);
  auto keys = util::hashed_xorwow_items(f.num_slots() * 85 / 100, 1);
  for (uint64_t k : keys) ASSERT_TRUE(f.insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(f.contains(k));
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
}

TEST(GqfCore, RobinHoodRunsStaySorted) {
  // Force many collisions into few quotients (q=6 -> 64 slots).
  gqf_filter<uint8_t> f(6, 8);
  util::xorwow rng(3);
  for (int i = 0; i < 48; ++i) ASSERT_TRUE(f.insert(rng.next64()));
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;  // validate() checks sortedness
}

TEST(GqfCore, ClusterSpillIntoPadding) {
  // Fill the very last quotients; their runs spill past 2^q into the
  // padding region and must still be found.
  gqf_filter<uint8_t> f(8, 8);
  std::vector<uint64_t> hashes;
  // Construct hashes with the top quotient (255) and distinct remainders.
  for (uint64_t rem = 0; rem < 40; ++rem)
    hashes.push_back((uint64_t{255} << 8) | rem);
  for (uint64_t h : hashes) ASSERT_TRUE(f.insert_hash(h));
  for (uint64_t h : hashes) ASSERT_EQ(f.query_hash(h), 1u);
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
}

TEST(GqfCore, FalsePositiveRateTracksRemainderWidth) {
  auto measure = [](auto filter, double load, uint64_t seed) {
    auto keys = util::hashed_xorwow_items(
        static_cast<uint64_t>(filter.num_slots() * load), seed);
    for (uint64_t k : keys) filter.insert(k);
    auto absent = util::hashed_xorwow_items(300000, seed ^ 0xABC);
    uint64_t fp = 0;
    for (uint64_t k : absent) fp += filter.contains(k);
    return static_cast<double>(fp) / static_cast<double>(absent.size());
  };
  double fp8 = measure(gqf_filter<uint8_t>(14, 8), 0.85, 1);
  double fp16 = measure(gqf_filter<uint16_t>(14, 16), 0.85, 2);
  // eps ~ alpha * 2^-r.
  EXPECT_NEAR(fp8, 0.85 / 256, 0.0015);
  EXPECT_LT(fp16, 0.0005);
}

TEST(GqfCore, EnumerationRoundTrip) {
  gqf_filter<uint8_t> f(12, 8);
  std::map<uint64_t, uint64_t> ref;
  util::xorwow rng(5);
  for (int i = 0; i < 2000; ++i) {
    uint64_t k = rng.next_below(700);
    uint64_t c = 1 + rng.next_below(5);
    ref[f.hash_of(k)] += c;
    ASSERT_TRUE(f.insert(k, c));
  }
  std::map<uint64_t, uint64_t> seen;
  f.for_each([&](uint64_t hash, uint64_t count) { seen[hash] += count; });
  EXPECT_EQ(seen, ref);
}

TEST(GqfCore, MergePreservesCounts) {
  gqf_filter<uint8_t> a(12, 8), b(12, 8);
  for (uint64_t k = 0; k < 500; ++k) {
    a.insert(k, 2);
    b.insert(k + 250, 3);
  }
  ASSERT_TRUE(a.merge(b));
  for (uint64_t k = 0; k < 250; ++k) ASSERT_EQ(a.query(k), 2u);
  for (uint64_t k = 250; k < 500; ++k) ASSERT_EQ(a.query(k), 5u);
  for (uint64_t k = 500; k < 750; ++k) ASSERT_EQ(a.query(k), 3u);
  std::string why;
  EXPECT_TRUE(a.validate(&why)) << why;
}

TEST(GqfCore, MergeRejectsMismatchedGeometry) {
  gqf_filter<uint8_t> a(12, 8);
  gqf_filter<uint8_t> b(13, 8);
  EXPECT_FALSE(a.merge(b));
}

TEST(GqfCore, ResizeDoublesAndPreserves) {
  gqf_filter<uint16_t> f(10, 16);
  auto keys = util::hashed_xorwow_items(f.num_slots() * 80 / 100, 7);
  for (uint64_t k : keys) ASSERT_TRUE(f.insert(k));
  auto big = f.resized();
  EXPECT_EQ(big.num_slots(), f.num_slots() * 2);
  EXPECT_EQ(big.size(), f.size());
  // p = q + r is preserved, so the same keys hash identically.
  EXPECT_EQ(big.fingerprint_bits(), f.fingerprint_bits());
  for (uint64_t k : keys) ASSERT_TRUE(big.contains(k));
  std::string why;
  EXPECT_TRUE(big.validate(&why)) << why;
}

TEST(GqfCore, FullFilterRefusesGracefully) {
  gqf_filter<uint8_t> f(6, 8);  // 64 canonical slots + padding
  util::xorwow rng(11);
  bool refused = false;
  for (int i = 0; i < 100000 && !refused; ++i)
    refused = !f.insert(rng.next64());
  // Must stop accepting eventually, without corrupting structure.  (The
  // multiset size may exceed the slot count — counters compress
  // fingerprint duplicates — but distinct heads cannot.)
  EXPECT_TRUE(refused);
  EXPECT_LE(f.distinct_items(), f.total_slots());
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
}

TEST(GqfCore, SlotWidths32And64) {
  gqf_filter<uint32_t> f32(10, 32);
  gqf_filter<uint64_t> f64(8, 32);
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(f32.insert(k));
    ASSERT_TRUE(f64.insert(k, k % 7 + 1));
  }
  std::string why;
  EXPECT_TRUE(f32.validate(&why)) << why;
  EXPECT_TRUE(f64.validate(&why)) << why;
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(f32.contains(k));
    ASSERT_EQ(f64.query(k), k % 7 + 1);
  }
}

template <class SlotT>
std::string saved(const gqf_filter<SlotT>& f) {
  std::ostringstream out;
  f.save(out);
  return out.str();
}

TEST(GqfCore, RefusedCountedInsertLeavesNoTrace) {
  // 8255 distinct fingerprints in quotients 1..33 fill all but slot 0 of
  // the 8256 slots.  A count of 1000 at quotient 0 needs a head and two
  // digits: the head would fit in the free canonical slot, the digits
  // cannot, so the insert is refused before it writes anything.
  gqf_filter<uint8_t> f(6, 8);
  ASSERT_EQ(f.total_slots(), 8256u);
  for (uint64_t i = 0; i < 8255; ++i) ASSERT_TRUE(f.insert_hash(256 + i));
  const std::string before = saved(f);
  const uint64_t h = 5;  // quotient 0, remainder 5
  EXPECT_FALSE(f.insert_hash(h, 1000));
  EXPECT_EQ(f.size(), 8255u);
  EXPECT_EQ(f.distinct_items(), 8255u);
  EXPECT_EQ(f.query_hash(h), 0u);
  EXPECT_TRUE(saved(f) == before);
  // One slot is still free for a single instance.
  EXPECT_TRUE(f.insert_hash(h));
  std::string why;
  EXPECT_TRUE(f.validate(&why)) << why;
}

TEST(GqfCore, SlotLimitRefusalsAreByteIdentical) {
  // Keys just below a region-phase limit (one block short of region 2) at
  // 90 % load: a bounded insert either stays wholly below the limit or is
  // refused with the filter unchanged.  Counts cover a new head, digit
  // growth on a bump and multi-digit heads.
  gqf_filter<uint8_t> f(14, 8);
  for (uint64_t k : util::hashed_xorwow_items(f.num_slots() * 90 / 100, 21))
    ASSERT_TRUE(f.insert(k));
  const uint64_t limit = 2 * kRegionSlots - kBlockSlots;
  const gqf_introspect<uint8_t> x{f};
  auto tail = [&] {
    std::vector<uint64_t> t;
    for (uint64_t i = limit; i < f.total_slots(); ++i)
      t.push_back(uint64_t{x.slot(i)} << 2 | x.runend(i) << 1 |
                  x.count_flag(i));
    for (uint64_t b = limit / kBlockSlots; b < f.total_slots() / kBlockSlots;
         ++b)
      t.push_back(x.block_offset(b));
    return t;
  };
  constexpr uint64_t kCounts[] = {1, 2, 300, 70000};
  util::xorwow rng(4);
  std::vector<std::pair<uint64_t, uint64_t>> refused;
  uint64_t accepted = 0;
  for (int i = 0; i < 400; ++i) {
    const uint64_t q = limit - 1 - rng.next_below(512);
    const uint64_t h = q << 8 | rng.next_below(256);
    const uint64_t c = kCounts[i % 4];
    const std::string before = saved(f);
    const auto before_tail = tail();
    const uint64_t had = f.query_hash(h);
    if (f.insert_hash(h, c, limit)) {
      ++accepted;
      ASSERT_EQ(f.query_hash(h), had + c) << i;
      ASSERT_EQ(tail(), before_tail) << "wrote past the limit, insert " << i;
    } else {
      ASSERT_TRUE(saved(f) == before) << "refusal wrote, insert " << i;
      refused.emplace_back(h, c);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused.size(), 0u);
  std::string why;
  ASSERT_TRUE(f.validate(&why)) << why;
  // Unbounded, the refused inserts fit.
  for (auto [h, c] : refused) ASSERT_TRUE(f.insert_hash(h, c));
  EXPECT_TRUE(f.validate(&why)) << why;
}

}  // namespace
}  // namespace gf::gqf
