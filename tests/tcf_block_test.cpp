#include "tcf/tcf_block.h"

#include <gtest/gtest.h>

#include <string>

#include "gpu/launch.h"
#include "tcf/tcf.h"
#include "tcf/tcf_params.h"
#include "util/xorwow.h"

namespace gf::tcf {
namespace {

TEST(TcfBlock, AlignedClaimAndLoad) {
  tcf_block_aligned<16, 32> b;
  for (unsigned i = 0; i < 32; ++i) EXPECT_TRUE(b.is_empty(b.load(i)));
  EXPECT_TRUE(b.try_claim(5, kEmpty, 0x1234));
  EXPECT_EQ(b.load(5), 0x1234);
  EXPECT_FALSE(b.try_claim(5, kEmpty, 0x9999));  // already occupied
  EXPECT_EQ(b.load(5), 0x1234);
}

TEST(TcfBlock, AlignedDeleteToTombstoneAndReclaim) {
  tcf_block_aligned<16, 16> b;
  ASSERT_TRUE(b.try_claim(3, kEmpty, 77));
  EXPECT_FALSE(b.try_delete(3, 78));  // wrong fingerprint
  EXPECT_TRUE(b.try_delete(3, 77));
  EXPECT_TRUE(b.is_tombstone(b.load(3)));
  // Tombstones are claimable.
  EXPECT_TRUE(b.try_claim(3, kTombstone, 99));
  EXPECT_EQ(b.load(3), 99);
}

TEST(TcfBlock, Aligned8BitVariant) {
  tcf_block_aligned<8, 16> b;
  EXPECT_TRUE(b.try_claim(0, kEmpty, 0xAB));
  EXPECT_EQ(b.load(0), 0xAB);
  EXPECT_TRUE(b.try_delete(0, 0xAB));
  EXPECT_TRUE(b.is_tombstone(b.load(0)));
}

TEST(TcfBlock, Packed12RoundTripAllSlots) {
  tcf_block_packed12<32> b;
  // Fingerprints must carry a nonzero low nibble (the remap invariant).
  for (unsigned i = 0; i < 32; ++i) {
    uint16_t fp = remap_fingerprint<12, true>(0x100 + i * 37);
    ASSERT_TRUE(b.try_claim(i, kEmpty, fp)) << i;
    ASSERT_EQ(b.load(i), fp) << i;
  }
  // Every slot still holds its value after all the straddling writes.
  for (unsigned i = 0; i < 32; ++i) {
    uint16_t fp = remap_fingerprint<12, true>(0x100 + i * 37);
    ASSERT_EQ(b.load(i), fp) << i;
  }
}

TEST(TcfBlock, Packed12StateNibbles) {
  tcf_block_packed12<16> b;
  EXPECT_TRUE(b.is_empty(b.load(7)));
  uint16_t fp = remap_fingerprint<12, true>(0xABC);
  ASSERT_TRUE(b.try_claim(7, kEmpty, fp));
  EXPECT_FALSE(b.is_empty(b.load(7)));
  EXPECT_FALSE(b.is_tombstone(b.load(7)));
  ASSERT_TRUE(b.try_delete(7, fp));
  EXPECT_TRUE(b.is_tombstone(b.load(7)));
  // Reclaim the tombstone.
  EXPECT_TRUE(b.try_claim(7, kTombstone, fp));
  EXPECT_EQ(b.load(7), fp);
}

TEST(TcfBlock, Packed12NeighborIndependence) {
  // Writing a slot never disturbs its neighbors' values, including across
  // the straddling boundaries.
  tcf_block_packed12<32> b;
  uint16_t fps[32];
  for (unsigned i = 0; i < 32; ++i) {
    fps[i] = remap_fingerprint<12, true>(0x700 + i * 101);
    ASSERT_TRUE(b.try_claim(i, kEmpty, fps[i]));
  }
  for (unsigned victim = 0; victim < 32; victim += 3) {
    ASSERT_TRUE(b.try_delete(victim, fps[victim]));
    for (unsigned i = 0; i < 32; ++i) {
      if (i % 3 == 0 && i <= victim) continue;  // already tombstoned
      ASSERT_EQ(b.load(i), fps[i]) << "victim=" << victim << " i=" << i;
    }
  }
}

TEST(TcfBlock, ConcurrentClaimsExactlyOneWinnerPerSlot) {
  // 64 logical threads contend for each slot of a packed block; the claim
  // protocol must produce exactly one winner per slot.
  tcf_block_packed12<32> b;
  std::atomic<int> wins{0};
  gpu::launch_threads(32 * 64, [&](uint64_t t) {
    unsigned slot = static_cast<unsigned>(t % 32);
    uint16_t fp = remap_fingerprint<12, true>(
        static_cast<uint64_t>(0x200 + t / 32 + slot * 57));
    if (b.try_claim(slot, kEmpty, fp))
      wins.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(wins.load(), 32);
  for (unsigned i = 0; i < 32; ++i)
    EXPECT_FALSE(b.is_empty(b.load(i)));
}

TEST(TcfBlock, FillCountsOccupiedOnly) {
  tcf_block_aligned<16, 8> b;
  EXPECT_EQ(block_fill(b), 0u);
  b.try_claim(0, kEmpty, 10);
  b.try_claim(1, kEmpty, 11);
  b.try_claim(2, kEmpty, 12);
  EXPECT_EQ(block_fill(b), 3u);
  b.try_delete(1, 11);
  EXPECT_EQ(block_fill(b), 2u);  // tombstone = free space
}

TEST(TcfBlock, RemapAvoidsSentinels) {
  for (uint64_t raw = 0; raw < 70000; raw += 13) {
    uint16_t fp16 = remap_fingerprint<16, false>(raw);
    EXPECT_NE(fp16, kEmpty);
    EXPECT_NE(fp16, kTombstone);
    uint16_t fp12 = remap_fingerprint<12, true>(raw);
    EXPECT_GE(fp12 & 0xF, 2);
    EXPECT_LT(fp12, 1u << 12);
    uint16_t fp8 = remap_fingerprint<8, false>(raw);
    EXPECT_GE(fp8, 2);
  }
}

TEST(TcfBlock, GeometryFitsCacheLines) {
  // Paper §4.1: block size <= 128 bytes.
  EXPECT_LE(sizeof(tcf_block_aligned<16, 32>), 128u);
  EXPECT_LE(sizeof(tcf_block_aligned<8, 16>), 128u);
  EXPECT_LE(sizeof(tcf_block_packed12<32>), 128u);
  EXPECT_LE(sizeof(tcf_block_packed12<85>), 128u);
}

// -- Whole-block scan against the per-slot reference -------------------------

// Every block layout keeps its size, so the file format and memory use do
// not change; the scanned ones are 16-aligned.
static_assert(sizeof(tcf_block_aligned<8, 8>) == 8);
static_assert(sizeof(tcf_block_aligned<8, 16>) == 16);
static_assert(sizeof(tcf_block_aligned<8, 32>) == 32);
static_assert(sizeof(tcf_block_aligned<16, 8>) == 16);
static_assert(sizeof(tcf_block_aligned<16, 16>) == 32);
static_assert(sizeof(tcf_block_aligned<16, 32>) == 64);
static_assert(sizeof(tcf_block_packed12<8>) == 12);
static_assert(sizeof(tcf_block_packed12<16>) == 24);
static_assert(sizeof(tcf_block_packed12<32>) == 48);
static_assert(sizeof(tcf_8_8::block_type) == 8);
static_assert(sizeof(tcf_12_8::block_type) == 12);
static_assert(sizeof(tcf_12_12::block_type) == 20);
static_assert(sizeof(tcf_12_16::block_type) == 24);
static_assert(sizeof(tcf_12_32::block_type) == 48);
static_assert(sizeof(tcf_16_16::block_type) == 32);
static_assert(sizeof(tcf_16_32::block_type) == 64);
static_assert(sizeof(kv_tcf::block_type) == 64);
static_assert(!tcf_8_8::block_type::kWordScan);
static_assert(!tcf_12_32::block_type::kWordScan);
#if defined(__SSE2__)
static_assert(point_tcf::block_type::kWordScan);
static_assert(kv_tcf::block_type::kWordScan);
static_assert(alignof(point_tcf::block_type) == 16);
#endif

/// The per-slot scan the whole-block compare replaces.
template <unsigned ValBits, class Block>
int reference_find(const Block& b, uint16_t fp) {
  for (unsigned i = 0; i < Block::kSlots; ++i) {
    uint16_t v = b.load(i);
    if (Block::is_empty(v) || Block::is_tombstone(v)) continue;
    if (static_cast<uint16_t>(v >> ValBits) == fp) return static_cast<int>(i);
  }
  return -1;
}

template <class Block>
unsigned reference_fill(const Block& b) {
  unsigned fill = 0;
  for (unsigned i = 0; i < Block::kSlots; ++i) {
    uint16_t v = b.load(i);
    fill += !Block::is_empty(v) && !Block::is_tombstone(v);
  }
  return fill;
}

/// Randomised blocks of one aligned layout holding fingerprints stored as
/// (fp << ValBits) | value, with fp drawn as the TCF's hash draws it:
/// fp >= 2 at ValBits 0, fp >= 1 otherwise.
template <unsigned SlotBits, unsigned Slots, unsigned ValBits>
void check_scan_layout() {
  using block = tcf_block_aligned<SlotBits, Slots>;
  constexpr unsigned kFpBits = SlotBits - ValBits;
  constexpr uint16_t kMinFp = ValBits == 0 ? 2 : 1;
  constexpr uint32_t kFps = 1u << kFpBits;
  const std::string layout = std::to_string(SlotBits) + "-" +
                             std::to_string(Slots) + "/v" +
                             std::to_string(ValBits);
  util::xorwow rng(0x5CA7 + SlotBits * 1000 + Slots * 10 + ValBits);
  auto draw_fp = [&] {
    return static_cast<uint16_t>(kMinFp + rng.next32() % (kFps - kMinFp));
  };
  auto composite = [&](uint16_t fp) {
    return static_cast<typename block::storage_type>(
        (fp << ValBits) | (rng.next32() & ((1u << ValBits) - 1)));
  };

  // A match is never a sentinel: a block of only empties and tombstones
  // matches no fingerprint the hash can produce.
  block sentinels;
  for (unsigned i = 0; i < Slots; ++i) sentinels.slots[i] = i % 3 == 0;
  for (uint32_t fp = kMinFp; fp < kFps; ++fp) {
    ASSERT_GE(fp << ValBits, 2u);
    ASSERT_EQ((block_find<ValBits>(sentinels, static_cast<uint16_t>(fp))), -1)
        << layout << " fp " << fp;
  }

  for (int round = 0; round < 2000; ++round) {
    // Few distinct fingerprints, so blocks hold duplicates, mixed with
    // empties and tombstones.
    const uint16_t pool[3] = {draw_fp(), draw_fp(), draw_fp()};
    block b;
    for (unsigned i = 0; i < Slots; ++i) {
      const uint32_t r = rng.next32() % 8;
      b.slots[i] = r < 2 ? static_cast<typename block::storage_type>(r)
                   : r < 5 ? composite(pool[r - 2])
                           : composite(draw_fp());
    }
    ASSERT_EQ(block_fill(b), reference_fill(b)) << layout;
    for (uint16_t fp : {pool[0], pool[1], pool[2], draw_fp()})
      ASSERT_EQ(block_find<ValBits>(b, fp), reference_find<ValBits>(b, fp))
          << layout << " fp " << fp << " round " << round;
  }

  // A match at every slot position, with non-matching slots before it and
  // duplicates after it: the lowest index comes back.
  for (unsigned at = 0; at < Slots; ++at) {
    const uint16_t fp = draw_fp();
    block b;
    for (unsigned i = 0; i < Slots; ++i) {
      uint16_t other = draw_fp();
      while (other == fp) other = draw_fp();
      const uint32_t r = rng.next32() % 4;
      b.slots[i] = i > at && r == 0 ? composite(fp)
                   : r < 2 ? static_cast<typename block::storage_type>(r)
                           : composite(other);
    }
    b.slots[at] = composite(fp);
    ASSERT_EQ(block_find<ValBits>(b, fp), static_cast<int>(at))
        << layout << " at " << at;
    ASSERT_EQ(block_fill(b), reference_fill(b)) << layout;
  }
}

TEST(TcfBlock, WholeBlockScanMatchesPerSlotScan) {
  check_scan_layout<8, 8, 0>();  // 8 bytes: the per-slot fallback
  check_scan_layout<8, 16, 0>();
  check_scan_layout<8, 32, 0>();
  check_scan_layout<8, 32, 2>();
  check_scan_layout<16, 8, 0>();
  check_scan_layout<16, 16, 0>();
  check_scan_layout<16, 32, 0>();
  check_scan_layout<16, 32, 4>();  // kv_tcf's composite
}

}  // namespace
}  // namespace gf::tcf
