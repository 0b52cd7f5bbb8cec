// util::zeroed_array, the point TCF's block array: zero contents and exact
// sizes on both sides of the 2 MiB mapping threshold, 2 MiB alignment from
// the threshold up, copy and move, and a DRAM-sized point TCF whose save()
// bytes and memory_bytes() are what they were with a std::vector block
// array.  Whether the host grants transparent huge pages is not checked:
// that is the host's THP mode, not the code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "tcf/tcf.h"
#include "util/xorwow.h"
#include "util/zeroed_array.h"

namespace gf {
namespace {

using util::kHugePageBytes;
using util::zeroed_array;

bool all_zero(const zeroed_array<uint8_t>& a) {
  return std::all_of(a.begin(), a.end(), [](uint8_t b) { return b == 0; });
}

bool huge_aligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kHugePageBytes == 0;
}

TEST(ZeroedArray, ZeroFilledAroundTheThreshold) {
  for (size_t n : {kHugePageBytes - 1, kHugePageBytes, kHugePageBytes + 1}) {
    zeroed_array<uint8_t> a(n);
    EXPECT_EQ(a.size(), n);
    EXPECT_EQ(a.bytes(), n);
    EXPECT_EQ(a.end() - a.begin(), static_cast<ptrdiff_t>(n));
    EXPECT_TRUE(all_zero(a)) << n;
    if (n >= kHugePageBytes) {
      EXPECT_TRUE(huge_aligned(a.data())) << n;
    }
    // Every byte is writable, the last of a rounded-up mapping included.
    a[0] = 1;
    a[n - 1] = 2;
    EXPECT_EQ(a[0] + a[n - 1], 3);
  }
}

TEST(ZeroedArray, EmptyAndSmall) {
  zeroed_array<uint64_t> none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.data(), nullptr);
  zeroed_array<uint64_t> zero(0);
  EXPECT_EQ(zero.size(), 0u);
  EXPECT_EQ(zero.data(), nullptr);
  zeroed_array<uint64_t> small(3);
  EXPECT_EQ(small.size(), 3u);
  EXPECT_EQ(small[0] | small[1] | small[2], 0u);
}

TEST(ZeroedArray, BlockArraysAlignFromTheThresholdUp) {
  using block = tcf::point_tcf::block_type;
  constexpr size_t kBlocks = kHugePageBytes / sizeof(block);
  zeroed_array<block> at(kBlocks), above(kBlocks + 1);
  EXPECT_TRUE(huge_aligned(at.data()));
  EXPECT_TRUE(huge_aligned(above.data()));
  EXPECT_EQ(above.bytes(), (kBlocks + 1) * sizeof(block));
  zeroed_array<block> below(kBlocks - 1);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(below.data()) % alignof(block), 0u);
}

TEST(ZeroedArray, CopyAndMove) {
  for (size_t n : {size_t{4096}, kHugePageBytes + 1}) {
    zeroed_array<uint8_t> a(n);
    for (size_t i = 0; i < n; i += 511) a[i] = static_cast<uint8_t>(i | 1);
    zeroed_array<uint8_t> copy(a);
    ASSERT_EQ(copy.size(), n);
    EXPECT_NE(copy.data(), a.data());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), copy.begin()));
    a[0] = 0;
    EXPECT_EQ(copy[0], 1) << "a copy shares no storage";

    const uint8_t* storage = copy.data();
    zeroed_array<uint8_t> moved(std::move(copy));
    EXPECT_EQ(moved.data(), storage);
    EXPECT_EQ(moved.size(), n);
    EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move)

    zeroed_array<uint8_t> assigned(16);
    assigned = moved;
    EXPECT_TRUE(std::equal(moved.begin(), moved.end(), assigned.begin()));
    assigned = std::move(moved);
    EXPECT_EQ(assigned.data(), storage);
    assigned = zeroed_array<uint8_t>(8);
    EXPECT_EQ(assigned.size(), 8u);
  }
}

uint64_t fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

template <class F>
std::string saved(const F& f) {
  std::ostringstream out;
  f.save(out);
  return out.str();
}

/// A 2^22-slot TCF at 75 % load through the point loop (values 0-15 for
/// the key-value layout), with every fourth key erased again.
template <class F>
F filled_tcf() {
  F f(uint64_t{1} << 22);
  const auto keys = util::hashed_xorwow_items(f.capacity() * 3 / 4, 3200);
  for (uint64_t i = 0; i < keys.size(); ++i)
    f.insert(keys[i], static_cast<uint16_t>(i & 15));
  for (uint64_t i = 0; i < keys.size(); i += 4) f.erase(keys[i]);
  return f;
}

// The digests and byte counts were recorded with the std::vector block
// array these tables had before zeroed_array: same file, same memory
// report.
template <class F>
void expect_same_table(uint64_t digest, size_t memory_bytes) {
  const F f = filled_tcf<F>();
  EXPECT_TRUE(huge_aligned(f.blocks().data()));
  EXPECT_EQ(f.memory_bytes(), memory_bytes);
  const std::string bytes = saved(f);
  EXPECT_EQ(fnv1a(bytes), digest);
  std::istringstream in(bytes);
  const F loaded = F::load(in);
  EXPECT_EQ(loaded.size(), f.size());
  EXPECT_EQ(loaded.memory_bytes(), memory_bytes);
  EXPECT_TRUE(huge_aligned(loaded.blocks().data()));
  EXPECT_TRUE(saved(loaded) == bytes);
}

TEST(ZeroedArray, PointTcfRoundTripsByteIdentical) {
  expect_same_table<tcf::point_tcf>(0x73b5de61f5abfadeull, 8472494);
}

TEST(ZeroedArray, KvTcfRoundTripsByteIdentical) {
  expect_same_table<tcf::kv_tcf>(0x21f05d73afd4efeaull, 8472494);
}

TEST(ZeroedArray, PackedTcfRoundTripsByteIdentical) {
  expect_same_table<tcf::tcf_12_16>(0x654d84e2a69fa069ull, 6375342);
}

TEST(ZeroedArray, TruncatedTcfFileThrows) {
  const std::string bytes = saved(filled_tcf<tcf::point_tcf>());
  std::istringstream in(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(tcf::point_tcf::load(in), std::runtime_error);
}

}  // namespace
}  // namespace gf
