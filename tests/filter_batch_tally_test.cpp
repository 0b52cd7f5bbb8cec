// Every filter batch helper that tallies through gpu::launch_sum against
// the serial loop over its point op.  Batches mix stored and absent keys
// at sizes around the launch floor (launch_sum runs up to kLaunchFloor
// keys as one range on the caller, more as one range per worker), so a
// range that drops, repeats or miscounts keys shows as a different return
// value.  Writes must also leave the same save() bytes on a serial path.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/blocked_bloom.h"
#include "baselines/bloom.h"
#include "baselines/cpu_cqf.h"
#include "baselines/rsqf.h"
#include "baselines/sqf.h"
#include "baselines/vqf.h"
#include "gpu/launch.h"
#include "gpu/thread_pool.h"
#include "gqf/gqf_bulk.h"
#include "gqf/gqf_point.h"
#include "tcf/bulk_tcf.h"
#include "tcf/tcf.h"
#include "util/xorwow.h"

namespace gf {
namespace {

static_assert(gpu::kLaunchFloor == 1024);
constexpr size_t kSizes[] = {0, 1, 1024, 1025, 100000};

// Every filter below is sized for the largest batch plus its stored half
// at well under its stable load, so no insert is refused in either order.
constexpr uint32_t kQBits = 19;
constexpr uint64_t kSlots = uint64_t{1} << kQBits;

/// A batch of n keys; the even positions are also returned in `stored`,
/// which the caller inserts first, so every range of the batch mixes hits
/// and misses.
struct mixed_batch {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> stored;
};

mixed_batch make_batch(size_t n) {
  mixed_batch b{util::hashed_xorwow_items(n, 2500 + n), {}};
  for (size_t i = 0; i < n; i += 2) b.stored.push_back(b.keys[i]);
  return b;
}

template <class F>
void store_all(F& f, const std::vector<uint64_t>& keys) {
  for (uint64_t k : keys) {
    if constexpr (std::is_void_v<decltype(f.insert(k))>) {
      f.insert(k);  // the Bloom filters cannot refuse
    } else {
      ASSERT_TRUE(f.insert(k));
    }
  }
}

template <class F>
uint64_t point_contains(const F& f, const std::vector<uint64_t>& keys) {
  uint64_t hits = 0;
  for (uint64_t k : keys) hits += f.contains(k);
  return hits;
}

template <class F>
std::string saved(const F& f) {
  std::ostringstream out;
  f.save(out);
  return out.str();
}

/// `count(f, keys)` equals the point loop on a filter holding the stored
/// half of every batch size.
template <class Make, class Count>
void expect_count_matches(const char* what, Make&& make, Count&& count) {
  for (size_t n : kSizes) {
    const mixed_batch b = make_batch(n);
    auto f = make();
    store_all(f, b.stored);
    const uint64_t serial = point_contains(f, b.keys);
    EXPECT_GE(serial, b.stored.size()) << what << " n=" << n;
    EXPECT_EQ(count(f, b.keys), serial) << what << " n=" << n;
  }
}

template <class F>
uint64_t count_contained(const F& f, std::span<const uint64_t> keys) {
  return f.count_contained(keys);
}

TEST(FilterBatchTally, CountContainedMatchesPointLoop) {
  using baselines::blocked_bloom_filter;
  using baselines::bloom_filter;
  using baselines::cpu_cqf;
  using baselines::rsqf;
  using baselines::sqf;
  using baselines::vqf;
  expect_count_matches(
      "gqf_point", [] { return gqf::gqf_point<uint8_t>(kQBits, 8); },
      count_contained<gqf::gqf_point<uint8_t>>);
  expect_count_matches(
      "gqf", [] { return gqf::gqf_filter<uint8_t>(kQBits, 8); },
      [](const gqf::gqf_filter<uint8_t>& f, std::span<const uint64_t> k) {
        return gqf::bulk_count_contained(f, k);
      });
  expect_count_matches(
      "rsqf", [] { return rsqf(kQBits, 8); }, count_contained<rsqf>);
  expect_count_matches(
      "bloom", [] { return bloom_filter(kSlots / 4, 0.01); },
      count_contained<bloom_filter>);
  expect_count_matches(
      "blocked_bloom", [] { return blocked_bloom_filter(kSlots / 4, 10.1, 7); },
      count_contained<blocked_bloom_filter>);
  expect_count_matches(
      "vqf", [] { return vqf(kSlots); }, count_contained<vqf>);
  expect_count_matches(
      "cpu_cqf", [] { return cpu_cqf(kQBits, 8); }, count_contained<cpu_cqf>);
  expect_count_matches(
      "sqf", [] { return sqf(kQBits, 5); }, count_contained<sqf>);
  expect_count_matches(
      "bulk_tcf", [] { return tcf::bulk_tcf<>(kSlots); },
      count_contained<tcf::bulk_tcf<>>);
  expect_count_matches(
      "point_tcf", [] { return tcf::point_tcf(kSlots); },
      count_contained<tcf::point_tcf>);
}

/// Two filters with the batch's stored half: `bulk` takes `bulk_call`, a
/// twin takes the point loop `point_op` over the batch.  The returns must
/// agree; with `same_bytes` (a serial path) so must `bytes_of`.
template <class Make, class Bulk, class Op, class Bytes>
void expect_write_matches(const char* what, bool same_bytes, Make&& make,
                          Bulk&& bulk_call, Op&& point_op, Bytes&& bytes_of) {
  for (size_t n : kSizes) {
    const mixed_batch b = make_batch(n);
    auto bulk = make();
    auto point = make();
    store_all(bulk, b.stored);
    store_all(point, b.stored);
    uint64_t serial = 0;
    for (uint64_t k : b.keys) serial += point_op(point, k);
    EXPECT_EQ(bulk_call(bulk, b.keys), serial) << what << " n=" << n;
    if (same_bytes) {
      EXPECT_TRUE(bytes_of(bulk) == bytes_of(point)) << what << " n=" << n;
    }
  }
}

void check_writes_match_point_loop(bool same_bytes) {
  using baselines::cpu_cqf;
  using baselines::vqf;
  using gqf_point = gqf::gqf_point<uint8_t>;
  using tcf::point_tcf;
  const auto insert_bulk = [](auto& f, std::span<const uint64_t> keys) {
    return f.insert_bulk(keys);
  };
  const auto erase_bulk = [](auto& f, std::span<const uint64_t> keys) {
    return f.erase_bulk(keys);
  };
  const auto insert = [](auto& f, uint64_t k) { return f.insert(k); };
  const auto erase = [](auto& f, uint64_t k) { return f.erase(k); };
  const auto save_bytes = [](const auto& f) { return saved(f); };

  const auto make_gqf = [] { return gqf_point(kQBits, 8); };
  expect_write_matches("gqf_point insert_bulk", same_bytes, make_gqf,
                       insert_bulk, insert, save_bytes);
  expect_write_matches("gqf_point erase_bulk", same_bytes, make_gqf,
                       erase_bulk, erase, save_bytes);
  expect_write_matches(
      "cpu_cqf insert_bulk", same_bytes, [] { return cpu_cqf(kQBits, 8); },
      insert_bulk, insert,
      [](const cpu_cqf& f) { return saved(f.filter()); });
  // The VQF has no save(); its writes are checked by return value only.
  expect_write_matches(
      "vqf insert_bulk", false, [] { return vqf(kSlots); }, insert_bulk,
      insert, [](const vqf&) { return 0; });
  const auto make_tcf = [] { return point_tcf(kSlots); };
  expect_write_matches("point_tcf insert_bulk", same_bytes, make_tcf,
                       insert_bulk, insert, save_bytes);
  expect_write_matches("point_tcf erase_bulk", same_bytes, make_tcf,
                       erase_bulk, erase, save_bytes);
}

TEST(FilterBatchTally, WritesMatchPointLoop) {
  // At pool width 1 every batch call runs serially on the caller (the
  // filter_batch_tally_test_w1 registration runs this binary at that
  // width), so the bytes must match too.
  check_writes_match_point_loop(gpu::thread_pool::instance().size() == 1);
  // Inside a pool launch, as the store's per-shard launch calls a filter,
  // every nested launch runs inline on the worker.
  gpu::launch_ranges(1, [](unsigned, uint64_t, uint64_t) {
    check_writes_match_point_loop(true);
  });
}

/// The entries a TCF holds, counted slot by slot.
uint64_t stored_entries(const tcf::point_tcf& f) {
  uint64_t n = 0;
  f.for_each([&](uint64_t, uint16_t, uint16_t) { ++n; });
  return n;
}

// The point TCF's batch writes add each range's placements to the
// live-item gauge once, not per key: after every batch write path, at any
// pool width (filter_batch_tally_test_w4 runs this binary at 4 workers),
// size() is what the point loop leaves and what the table holds.
TEST(FilterBatchTally, TcfBatchWritesKeepPointLoopSize) {
  for (size_t n : kSizes) {
    const mixed_batch b = make_batch(n);
    tcf::point_tcf bulk(kSlots), point(kSlots);
    store_all(bulk, b.stored);
    store_all(point, b.stored);
    const auto point_loop = [&](const std::vector<uint64_t>& keys, auto op) {
      for (uint64_t k : keys) op(k);
    };
    bulk.insert_bulk(b.keys);
    point_loop(b.keys, [&](uint64_t k) { point.insert(k); });
    EXPECT_EQ(bulk.size(), point.size()) << "insert_bulk n=" << n;
    bulk.erase_bulk(b.stored);
    point_loop(b.stored, [&](uint64_t k) { point.erase(k); });
    EXPECT_EQ(bulk.size(), point.size()) << "erase_bulk n=" << n;
    const std::vector<uint64_t> counts(b.keys.size(), 3);
    bulk.insert_counted_sorted(b.keys, counts);
    point_loop(b.keys, [&](uint64_t k) { point.insert(k); });
    EXPECT_EQ(bulk.size(), point.size()) << "insert_counted_sorted n=" << n;
    EXPECT_EQ(bulk.size(), stored_entries(bulk)) << "n=" << n;
    // 64 hot keys: the sorted insert places each run once per range, so
    // the count to match is the table's own.
    std::vector<uint64_t> hot(n);
    for (size_t i = 0; i < n; ++i) hot[i] = b.keys[i % 64];
    bulk.insert_bulk_sorted(hot);
    EXPECT_EQ(bulk.size(), stored_entries(bulk))
        << "insert_bulk_sorted n=" << n;
  }
}

}  // namespace
}  // namespace gf
