// Parameterized property sweeps over bulk-TCF geometry and batching
// strategy: sortedness, conservation, and no-false-negatives must hold
// for every block size and any batch slicing.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "gpu/thread_pool.h"
#include "tcf/bulk_tcf.h"
#include "util/xorwow.h"

namespace gf::tcf {
namespace {

using bulk_param = std::tuple<int, int>;  // log2 slots, number of batches

template <unsigned Slots>
void run_geometry(int log_slots, int batches) {
  bulk_tcf<16, Slots> f(uint64_t{1} << log_slots);
  uint64_t total = f.capacity() * 85 / 100;
  auto keys = util::hashed_xorwow_items(total, log_slots * 31 + batches);
  uint64_t inserted = 0;
  for (int b = 0; b < batches; ++b) {
    uint64_t begin = total * b / batches;
    uint64_t end = total * (b + 1) / batches;
    std::span<const uint64_t> slice(keys.data() + begin, end - begin);
    inserted += f.insert_bulk(slice);
    ASSERT_TRUE(f.validate()) << "slots=" << Slots << " batch " << b;
  }
  EXPECT_EQ(inserted, total) << "slots=" << Slots;
  EXPECT_EQ(f.count_contained(keys), total) << "slots=" << Slots;
  // Erase in different slicing than insertion.
  uint64_t removed = 0;
  int erase_batches = batches == 1 ? 3 : 1;
  for (int b = 0; b < erase_batches; ++b) {
    uint64_t begin = total * b / erase_batches;
    uint64_t end = total * (b + 1) / erase_batches;
    std::span<const uint64_t> slice(keys.data() + begin, end - begin);
    removed += f.erase_bulk(slice);
    ASSERT_TRUE(f.validate());
  }
  EXPECT_EQ(f.size(), total - removed);
  EXPECT_GE(removed, total * 99 / 100);  // aliasing bound
}

class BulkTcfSweep : public ::testing::TestWithParam<bulk_param> {};

TEST_P(BulkTcfSweep, GeometryAndBatchingInvariants) {
  auto [log_slots, batches] = GetParam();
  run_geometry<32>(log_slots, batches);
  run_geometry<64>(log_slots, batches);
  run_geometry<128>(log_slots, batches);
}

INSTANTIATE_TEST_SUITE_P(
    SlicedBatches, BulkTcfSweep,
    ::testing::Values(bulk_param{12, 1}, bulk_param{12, 7},
                      bulk_param{14, 1}, bulk_param{14, 4},
                      bulk_param{16, 2}),
    [](const ::testing::TestParamInfo<bulk_param>& info) {
      return "slots2e" + std::to_string(std::get<0>(info.param)) +
             "_batches" + std::to_string(std::get<1>(info.param));
    });

TEST(BulkTcfProperty, AdversarialSameBlockBatch) {
  // A batch whose keys all share one primary block must POTC-spill and
  // then overflow into the backing table without losing anyone.
  bulk_tcf<16, 32> f(1 << 10);
  // Find keys with the same primary block by rejection sampling.
  std::vector<uint64_t> same_block;
  util::xorwow rng(7);
  uint64_t want_block = 3;
  while (same_block.size() < 80) {
    uint64_t k = rng.next64();
    uint64_t b1 = util::fast_range(util::murmur64(k), (1u << 10) / 32);
    if (b1 == want_block) same_block.push_back(k);
  }
  uint64_t inserted = f.insert_bulk(same_block);
  EXPECT_TRUE(f.validate());
  // 32 primary + spill into distinct secondaries + backing: all 80 fit.
  EXPECT_EQ(inserted, same_block.size());
  EXPECT_EQ(f.count_contained(same_block), same_block.size());
}

TEST(BulkTcfProperty, RepeatedBatchOfOneKey) {
  bulk_tcf<16, 128> f(1 << 12);
  std::vector<uint64_t> batch(300, 0xfeedbeef);
  uint64_t inserted = f.insert_bulk(batch);
  EXPECT_TRUE(f.validate());
  // 256 copies fit in the two candidate blocks; the rest hit the backing
  // table (capacity 40) and overflow reports honestly.
  EXPECT_GE(inserted, 256u);
  EXPECT_LE(inserted, 300u);
  EXPECT_EQ(f.size(), inserted);
}

uint64_t fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t save_digest(const bulk_tcf<>& f) {
  std::ostringstream out;
  f.save(out);
  return fnv1a(out.str());
}

/// A fixed-seed stream of `frame_keys`-key wire-sized frames: three INSERT
/// frames of fresh keys, then one ERASE frame of the oldest live keys,
/// until the table holds 60 % of capacity.  The live set is always the
/// contiguous window keys[lo, hi).  At pool width 1 the bulk phases are
/// deterministic, so the saved bytes are pinned to `width1_digest`: the
/// launch shape, the sort and the block merge may change, the placement
/// may not.
void run_frame_stream(int log_slots, uint64_t frame_keys,
                      uint64_t width1_digest) {
  bulk_tcf<> f(uint64_t{1} << log_slots);
  const uint64_t target = f.capacity() * 60 / 100;
  auto keys = util::hashed_xorwow_items(2 * target, 1600 + log_slots);
  uint64_t lo = 0, hi = 0, expect_size = 0;
  for (uint64_t frame = 0; hi - lo < target; ++frame) {
    if (frame % 4 == 3) {
      expect_size -= f.erase_bulk({keys.data() + lo, frame_keys});
      lo += frame_keys;
    } else {
      ASSERT_LE(hi + frame_keys, keys.size());
      expect_size += f.insert_bulk({keys.data() + hi, frame_keys});
      hi += frame_keys;
    }
    ASSERT_EQ(f.size(), expect_size) << "frame " << frame;
    if (frame % 32 == 0) {
      ASSERT_TRUE(f.validate()) << "frame " << frame;
    }
  }
  EXPECT_TRUE(f.validate());
  EXPECT_EQ(f.size(), hi - lo);  // nothing refused, nothing lost
  std::span<const uint64_t> live(keys.data() + lo, hi - lo);
  EXPECT_EQ(f.count_contained(live), live.size());
  if (gpu::thread_pool::instance().size() == 1) {
    EXPECT_EQ(save_digest(f), width1_digest)
        << "2^" << log_slots << ", " << frame_keys << "-key frames";
  }
}

// The digests were recorded with a launch over every block of the table
// (the paper's full grid), so they pin that launching over the touched
// blocks only places every fingerprint identically.
TEST(BulkTcfProperty, FrameStreamPlacementIsPinned2e16) {
  run_frame_stream(16, 1024, 0x687ff97113e722f9ull);
}

TEST(BulkTcfProperty, FrameStreamPlacementIsPinned2e20) {
  run_frame_stream(20, 1024, 0xe0247dc9c4b4ce4full);
}

// Frame sizes around the sort's tiers and a store shard's slice of a
// 1024-key frame (about 128 keys): recorded with the comparison sort on
// every batch below 4096 keys and the scratch zip merge, so they pin that
// the serial radix sort and the in-place block merges place identically.
TEST(BulkTcfProperty, FrameStreamPlacementIsPinnedSmallFrames) {
  run_frame_stream(16, 16, 0x9259f3a5aba00225ull);
  run_frame_stream(16, 127, 0xf77e3af2a20d37ccull);
  run_frame_stream(20, 128, 0x57171f8cca356369ull);
  run_frame_stream(16, 129, 0x2abe6caa881758abull);
  run_frame_stream(16, 4095, 0xd7683e3e0cfa16c2ull);
}

/// Keys drawn until `want` of them satisfy `pred(b1)` for the primary block
/// b1 of a bulk_tcf<16, Slots> with `blocks` blocks.
template <class Pred>
std::vector<uint64_t> keys_with_primary(uint64_t blocks, size_t want,
                                        uint64_t seed, Pred&& pred) {
  std::vector<uint64_t> out;
  util::xorwow rng(seed);
  while (out.size() < want) {
    uint64_t k = rng.next64();
    if (pred(util::fast_range(util::murmur64(k), blocks))) out.push_back(k);
  }
  return out;
}

TEST(BulkTcfProperty, BatchInOneBlockTouchesOnlyItsCandidates) {
  // One touched primary block in a 2^16-slot table: only that block and
  // the batch's secondaries may change.
  bulk_tcf<> f(1 << 16);
  const uint64_t blocks = f.num_blocks();
  auto batch = keys_with_primary(blocks, 120, 11,
                                 [](uint64_t b1) { return b1 == 200; });
  std::set<uint64_t> allowed = {200};
  for (uint64_t k : batch)
    allowed.insert(util::fast_range(util::mix64_b(k), blocks));
  EXPECT_EQ(f.insert_bulk(batch), batch.size());
  EXPECT_TRUE(f.validate());
  EXPECT_EQ(f.count_contained(batch), batch.size());
  uint64_t stored = 0;
  f.for_each([&](uint64_t block, uint16_t) {
    EXPECT_TRUE(allowed.count(block)) << "block " << block;
    ++stored;
  });
  EXPECT_EQ(stored, batch.size());
  EXPECT_EQ(f.erase_bulk(batch), batch.size());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_TRUE(f.validate());
}

TEST(BulkTcfProperty, BatchTouchingEveryBlock) {
  // Four keys per primary block, every block: the run list is as long as
  // the table, and every block still gets exactly one writer.
  bulk_tcf<> f(1 << 14);
  const uint64_t blocks = f.num_blocks();
  std::vector<uint64_t> per_block(blocks, 0);
  std::vector<uint64_t> batch;
  util::xorwow rng(12);
  while (batch.size() < 4 * blocks) {
    uint64_t k = rng.next64();
    uint64_t b1 = util::fast_range(util::murmur64(k), blocks);
    if (per_block[b1] < 4) {
      ++per_block[b1];
      batch.push_back(k);
    }
  }
  EXPECT_EQ(f.insert_bulk(batch), batch.size());
  EXPECT_TRUE(f.validate());
  EXPECT_EQ(f.count_contained(batch), batch.size());
  std::vector<uint64_t> fill(blocks, 0);
  f.for_each([&](uint64_t block, uint16_t) {
    if (block < blocks) ++fill[block];
  });
  for (uint64_t b = 0; b < blocks; ++b) EXPECT_EQ(fill[b], 4u) << b;
  EXPECT_EQ(f.erase_bulk(batch), batch.size());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_TRUE(f.validate());
}

TEST(BulkTcfProperty, EraseBatchMissingEveryBlockReachesBacking) {
  // 300 copies of one key: 256 fill its two candidate blocks, the rest go
  // to the backing table.  Erasing 256 copies empties both blocks; the
  // next erase batch then misses both blocks for every key and must be
  // served by the backing table alone.
  bulk_tcf<16, 128> f(1 << 12);
  std::vector<uint64_t> batch(300, 0xfeedbeef);
  const uint64_t inserted = f.insert_bulk(batch);
  ASSERT_GT(inserted, 256u);
  const uint64_t in_backing = f.backing_size();
  ASSERT_EQ(in_backing, inserted - 256);
  EXPECT_EQ(f.erase_bulk({batch.data(), 256}), 256u);
  EXPECT_EQ(f.backing_size(), in_backing);
  EXPECT_EQ(f.erase_bulk({batch.data(), in_backing}), in_backing);
  EXPECT_EQ(f.backing_size(), 0u);
  EXPECT_EQ(f.size(), 0u);
  EXPECT_FALSE(f.contains(0xfeedbeef));
  EXPECT_TRUE(f.validate());
}

}  // namespace
}  // namespace gf::tcf
