// obs::latency_histogram / histogram_snapshot unit tests: the log2-bucket
// layout (bucket 0 = {0}, bucket i = [2^(i-1), 2^i)), percentile bounds at
// bucket boundaries, multi-lane concurrent recording, and snapshot merge
// associativity — the properties the registry's rendered quantiles rest on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/histogram.h"

using namespace gf;

TEST(ObsHistogram, BucketOfLayout) {
  // bucket 0 = {0}; bucket i >= 1 covers [2^(i-1), 2^i).
  EXPECT_EQ(obs::latency_histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::latency_histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::latency_histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::latency_histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::latency_histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::latency_histogram::bucket_of(1023), 10u);
  EXPECT_EQ(obs::latency_histogram::bucket_of(1024), 11u);
  EXPECT_EQ(obs::latency_histogram::bucket_of(UINT64_MAX),
            obs::kHistogramBuckets - 1);
}

TEST(ObsHistogram, BucketUpperMatchesBucketOf) {
  // Every bucket's upper bound must itself map back into that bucket —
  // the invariant that makes percentile() an upper bound, not a guess.
  for (unsigned i = 0; i < obs::kHistogramBuckets; ++i) {
    const uint64_t upper = obs::histogram_snapshot::bucket_upper(i);
    EXPECT_EQ(obs::latency_histogram::bucket_of(upper), i) << "bucket " << i;
  }
}

TEST(ObsHistogram, EmptySnapshot) {
  obs::latency_histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.percentile(0.50), 0u);
  EXPECT_EQ(s.percentile(0.99), 0u);
  EXPECT_EQ(s.max(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(ObsHistogram, PercentileUpperBounds) {
  // 100 values of 100ns and 1 value of 10^6ns: p50/p90 (and p999, whose
  // rank among 101 samples is 100 — still the common bucket) must report
  // the 100ns bucket's upper bound; only p100 reaches the outlier.  The
  // log2 buckets guarantee the bound is within 2x of the true value.
  obs::latency_histogram h;
  for (int i = 0; i < 100; ++i) h.record(100);
  h.record(1'000'000);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count(), 101u);
  EXPECT_EQ(s.sum, 100u * 100u + 1'000'000u);

  const uint64_t small_upper = obs::histogram_snapshot::bucket_upper(
      obs::latency_histogram::bucket_of(100));
  const uint64_t big_upper = obs::histogram_snapshot::bucket_upper(
      obs::latency_histogram::bucket_of(1'000'000));
  EXPECT_EQ(s.percentile(0.50), small_upper);
  EXPECT_EQ(s.percentile(0.90), small_upper);
  EXPECT_EQ(s.percentile(0.999), small_upper);
  EXPECT_EQ(s.percentile(1.0), big_upper);
  EXPECT_EQ(s.max(), big_upper);
  // The true value always lies in (upper/2, upper]: 100 <= 127, 100 > 63.
  EXPECT_GE(small_upper, 100u);
  EXPECT_LT(small_upper / 2, 100u);
}

TEST(ObsHistogram, PercentileEdges) {
  obs::latency_histogram h;
  h.record(0);  // bucket 0: upper bound 0
  h.record(7);
  const auto s = h.snapshot();
  // p at or below 1/count must land on the smallest recorded bucket.
  EXPECT_EQ(s.percentile(0.0), 0u);
  EXPECT_EQ(s.percentile(0.5), 0u);
  EXPECT_EQ(s.percentile(1.0), obs::histogram_snapshot::bucket_upper(
                                   obs::latency_histogram::bucket_of(7)));
}

TEST(ObsHistogram, HugeValuesSaturate) {
  obs::latency_histogram h;
  h.record(UINT64_MAX);
  h.record(UINT64_MAX / 2);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.percentile(1.0), UINT64_MAX);
  EXPECT_EQ(s.max(), UINT64_MAX);
}

TEST(ObsHistogram, ConcurrentRecordingTotals) {
  // N workers hammer distinct lanes (and some shared ones via modulo);
  // the merged snapshot must account for every record exactly once.
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  obs::latency_histogram h(4);  // fewer lanes than threads: forced sharing
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i)
        h.record_lane(t, (i % 1024) + 1);
    });
  for (auto& w : workers) w.join();

  const auto s = h.snapshot();
  EXPECT_EQ(s.count(), kThreads * kPerThread);
  uint64_t expect_sum = 0;
  for (uint64_t i = 0; i < kPerThread; ++i)
    expect_sum += (i % 1024) + 1;
  EXPECT_EQ(s.sum, kThreads * expect_sum);
}

TEST(ObsHistogram, SnapshotConcurrentWithRecording) {
  // TSan regression for the concurrent lane merge: snapshot() sums every
  // lane while recorders are mid-flight.  Torn count/sum pairs are
  // documented and fine; the merged count must be monotone over time and
  // exact once the recorders join.
  constexpr unsigned kThreads = 4;
  constexpr uint64_t kPerThread = 40'000;
  obs::latency_histogram h(kThreads);

  std::atomic<bool> stop{false};
  // Recorders start once the merger is looping: on a loaded host it could
  // otherwise first run after they finished and take no snapshot at all.
  std::atomic<bool> merging{false};
  uint64_t snapshots = 0;
  std::thread merger([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto s = h.snapshot();
      ++snapshots;
      merging.store(true, std::memory_order_relaxed);
      ASSERT_GE(s.count(), last);
      last = s.count();
    }
  });

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, &merging, t] {
      while (!merging.load(std::memory_order_relaxed))
        std::this_thread::yield();
      for (uint64_t i = 0; i < kPerThread; ++i) h.record_lane(t, i & 2047);
    });
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  merger.join();

  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(h.snapshot().count(), kThreads * kPerThread);
}

TEST(ObsHistogram, MergeAssociativity) {
  obs::latency_histogram a, b, c;
  for (uint64_t v = 1; v < 2000; v += 3) a.record(v);
  for (uint64_t v = 1; v < 5000; v += 7) b.record(v * 11);
  for (uint64_t v = 0; v < 64; ++v) c.record(uint64_t{1} << v >> 1);

  auto sa = a.snapshot(), sb = b.snapshot(), sc = c.snapshot();
  // (a + b) + c == a + (b + c), bucket for bucket.
  obs::histogram_snapshot left = sa;
  left.merge(sb);
  left.merge(sc);
  obs::histogram_snapshot bc = sb;
  bc.merge(sc);
  obs::histogram_snapshot right = sa;
  right.merge(bc);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.sum, right.sum);
  for (unsigned i = 0; i < obs::kHistogramBuckets; ++i)
    EXPECT_EQ(left.buckets[i], right.buckets[i]) << "bucket " << i;
  EXPECT_EQ(left.count(), sa.count() + sb.count() + sc.count());
  EXPECT_EQ(left.percentile(0.5), right.percentile(0.5));
  EXPECT_EQ(left.percentile(0.999), right.percentile(0.999));
}

TEST(ObsHistogram, ResetClears) {
  obs::latency_histogram h(2);
  h.record_lane(0, 42);
  h.record_lane(1, 42);
  EXPECT_EQ(h.snapshot().count(), 2u);
  h.reset();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum, 0u);
  h.record(5);
  EXPECT_EQ(h.snapshot().count(), 1u);
}
