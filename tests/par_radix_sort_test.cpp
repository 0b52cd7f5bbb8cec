#include "par/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace gf::par {
namespace {

TEST(RadixSort, MatchesStdSort) {
  std::mt19937_64 rng(42);
  for (size_t n : {0ul, 1ul, 2ul, 100ul, 4095ul, 4096ul, 100000ul}) {
    std::vector<uint64_t> a(n);
    for (auto& v : a) v = rng();
    std::vector<uint64_t> b = a;
    radix_sort(a);
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "n=" << n;
  }
}

TEST(RadixSort, LimitedKeyBitsSkipHighPasses) {
  std::mt19937_64 rng(7);
  std::vector<uint64_t> a(50000);
  for (auto& v : a) v = rng() & 0xFFFFF;  // 20-bit keys
  std::vector<uint64_t> b = a;
  radix_sort(a, 20);
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(RadixSort, AlreadySortedAndReversed) {
  std::vector<uint64_t> a(100000);
  for (size_t i = 0; i < a.size(); ++i) a[i] = i;
  auto expect = a;
  radix_sort(a);
  EXPECT_EQ(a, expect);
  for (size_t i = 0; i < a.size(); ++i) a[i] = a.size() - i;
  radix_sort(a);
  for (size_t i = 1; i < a.size(); ++i) ASSERT_LE(a[i - 1], a[i]);
}

TEST(RadixSort, ManyDuplicates) {
  std::mt19937_64 rng(3);
  std::vector<uint64_t> a(100000);
  for (auto& v : a) v = rng() % 17;
  std::vector<uint64_t> b = a;
  radix_sort(a);
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(RadixSortByKey, ValuesFollowKeys) {
  std::mt19937_64 rng(11);
  size_t n = 60000;
  std::vector<uint64_t> keys(n), values(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng() & 0xFFFF;  // duplicates likely
    values[i] = i;
  }
  std::vector<std::pair<uint64_t, uint64_t>> ref(n);
  for (size_t i = 0; i < n; ++i) ref[i] = {keys[i], values[i]};
  std::stable_sort(ref.begin(), ref.end(),
                   [](auto& a, auto& b) { return a.first < b.first; });
  radix_sort_by_key(keys, values, 16);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], ref[i].first) << i;
    ASSERT_EQ(values[i], ref[i].second) << i;  // stability
  }
}

TEST(RadixSortByKey, SmallBatchStableSortPath) {
  std::vector<uint64_t> keys = {3, 1, 3, 2, 1};
  std::vector<uint64_t> values = {0, 1, 2, 3, 4};
  radix_sort_by_key(keys, values, 8);
  EXPECT_EQ(keys, (std::vector<uint64_t>{1, 1, 2, 3, 3}));
  EXPECT_EQ(values, (std::vector<uint64_t>{1, 4, 3, 0, 2}));
}

/// (key, value) pairs ordered by key, stably: the order every tier owes.
std::vector<std::pair<uint64_t, uint64_t>> stable_reference(
    const std::vector<uint64_t>& keys, const std::vector<uint64_t>& values) {
  std::vector<std::pair<uint64_t, uint64_t>> ref(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) ref[i] = {keys[i], values[i]};
  std::stable_sort(ref.begin(), ref.end(),
                   [](auto& a, auto& b) { return a.first < b.first; });
  return ref;
}

/// Keys of `key_bits` bits in three shapes: random, drawn from 7 values
/// (duplicates whose distinct values must keep their order), and random
/// with byte 1 fixed (a constant digit, whose scatter is skipped).
std::vector<uint64_t> tier_keys(size_t n, int key_bits, int shape,
                                uint64_t seed) {
  std::mt19937_64 rng(seed);
  const uint64_t mask =
      key_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << key_bits) - 1;
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) {
    k = rng();
    if (shape == 1) k = (k % 7) * 0x9E3779B97F4A7C15ull;
    if (shape == 2) k = (k & ~uint64_t{0xFF00}) | 0x5A00;
    k &= mask;
  }
  return keys;
}

TEST(RadixSortByKey, EveryTierMatchesStableSort) {
  for (int key_bits : {1, 16, 29, 44, 64}) {
    const size_t serial_min = serial_radix_sort_min(key_bits);
    for (size_t n : {size_t{0}, size_t{1}, serial_min - 1, serial_min,
                     size_t{4095}, size_t{4096}}) {
      for (int shape : {0, 1, 2}) {
        const auto keys = tier_keys(n, key_bits, shape, n * 131 + key_bits);
        std::vector<uint64_t> values(n);
        for (size_t i = 0; i < n; ++i) values[i] = i;
        const auto ref = stable_reference(keys, values);
        auto check = [&](const char* tier, const std::vector<uint64_t>& k,
                         const std::vector<uint64_t>& v) {
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(k[i], ref[i].first)
                << tier << " bits=" << key_bits << " n=" << n
                << " shape=" << shape << " at " << i;
            ASSERT_EQ(v[i], ref[i].second)
                << tier << " bits=" << key_bits << " n=" << n
                << " shape=" << shape << " at " << i;
          }
        };
        auto k = keys, v = values;
        radix_sort_by_key(k, v, key_bits);
        check("radix_sort_by_key", k, v);
        k = keys, v = values;
        tier::serial_radix_by_key(k, v, key_bits);
        check("serial", k, v);
        k = keys, v = values;
        tier::comparison_by_key(k, v);
        check("comparison", k, v);
        k = keys;
        radix_sort(k, key_bits);
        for (size_t i = 0; i < n; ++i) ASSERT_EQ(k[i], ref[i].first);
      }
    }
  }
}

}  // namespace
}  // namespace gf::par
