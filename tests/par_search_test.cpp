#include "par/search.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "par/radix_sort.h"

namespace gf::par {
namespace {

uint64_t by_hundreds(uint64_t v) { return v / 100; }

void expect_run(const touched_run& r, uint64_t region, uint64_t begin,
                uint64_t end) {
  EXPECT_EQ(r.region, region);
  EXPECT_EQ(r.begin, begin);
  EXPECT_EQ(r.end, end);
}

TEST(TouchedRuns, EmptySpan) {
  EXPECT_TRUE(touched_runs({}, by_hundreds).empty());
}

TEST(TouchedRuns, SingleRun) {
  std::vector<uint64_t> v = {300, 300, 301, 399};
  auto runs = touched_runs(v, by_hundreds);
  ASSERT_EQ(runs.size(), 1u);
  expect_run(runs[0], 3, 0, 4);
}

TEST(TouchedRuns, EveryRegionTouched) {
  std::vector<uint64_t> v = {5, 10, 15, 105, 110, 250, 399};
  auto runs = touched_runs(v, by_hundreds);
  ASSERT_EQ(runs.size(), 4u);
  expect_run(runs[0], 0, 0, 3);
  expect_run(runs[1], 1, 3, 5);
  expect_run(runs[2], 2, 5, 6);
  expect_run(runs[3], 3, 6, 7);
}

TEST(TouchedRuns, RegionsWithGaps) {
  // Regions 0, 2-4 and 6 are untouched and produce no run.
  std::vector<uint64_t> v = {100, 150, 500, 501, 502, 700};
  auto runs = touched_runs(v, by_hundreds);
  ASSERT_EQ(runs.size(), 3u);
  expect_run(runs[0], 1, 0, 2);
  expect_run(runs[1], 5, 2, 5);
  expect_run(runs[2], 7, 5, 6);
}

TEST(TouchedRuns, LastRegion) {
  // A batch that ends in the top region of an 8-region table: its run
  // closes at the end of the span.
  std::vector<uint64_t> v = {20, 799, 799};
  auto runs = touched_runs(v, by_hundreds);
  ASSERT_EQ(runs.size(), 2u);
  expect_run(runs[0], 0, 0, 1);
  expect_run(runs[1], 7, 1, 3);
}

TEST(TouchedRuns, RandomizedAgainstRegionScan) {
  std::mt19937_64 rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 1 + rng() % 50000;
    uint64_t regions = 1 + rng() % 64;
    std::vector<uint64_t> v(n);
    for (auto& x : v) x = rng() % (regions * 1000);
    radix_sort(v);
    auto region_of = [](uint64_t x) { return x / 1000; };
    auto runs = touched_runs(v, region_of);
    // Reference: per region, the [first, last] index range it owns.
    std::vector<touched_run> expect;
    for (uint64_t r = 0; r < regions; ++r) {
      uint64_t begin = 0;
      while (begin < n && region_of(v[begin]) < r) ++begin;
      uint64_t end = begin;
      while (end < n && region_of(v[end]) == r) ++end;
      if (begin < end) expect.push_back({r, begin, end});
    }
    ASSERT_EQ(runs.size(), expect.size()) << "trial=" << trial;
    for (size_t i = 0; i < runs.size(); ++i)
      expect_run(runs[i], expect[i].region, expect[i].begin, expect[i].end);
  }
}

TEST(TouchedRuns, PhaseBucketsSplitByStrideInOrder) {
  std::vector<uint64_t> v = {0, 100, 200, 300, 400, 500, 900, 1300};
  auto runs = touched_runs(v, by_hundreds);
  auto buckets = phase_buckets(runs, 4);
  ASSERT_EQ(buckets.size(), 4u);
  std::vector<std::vector<uint64_t>> regions(4);
  for (uint64_t p = 0; p < 4; ++p)
    for (const touched_run& r : buckets[p]) {
      EXPECT_EQ(r.region % 4, p);
      regions[p].push_back(r.region);
    }
  EXPECT_EQ(regions[0], (std::vector<uint64_t>{0, 4}));
  EXPECT_EQ(regions[1], (std::vector<uint64_t>{1, 5, 9, 13}));
  EXPECT_EQ(regions[2], (std::vector<uint64_t>{2}));
  EXPECT_EQ(regions[3], (std::vector<uint64_t>{3}));
  EXPECT_TRUE(phase_buckets({}, 2)[1].empty());
}

}  // namespace
}  // namespace gf::par
