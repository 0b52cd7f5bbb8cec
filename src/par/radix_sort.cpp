#include "par/radix_sort.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "gpu/launch.h"
#include "gpu/thread_pool.h"

namespace gf::par {

namespace {

constexpr int kDigitBits = 8;
constexpr int kBuckets = 1 << kDigitBits;

struct worker_hist {
  std::array<uint64_t, kBuckets> counts;
};

// One LSD pass: scatter src into dst by digit `shift`, stably, in parallel.
// Returns true if the pass was skipped because all keys share the digit.
template <bool kWithValues>
bool radix_pass(std::span<uint64_t> src, std::span<uint64_t> dst,
                std::span<uint64_t> vsrc, std::span<uint64_t> vdst,
                int shift) {
  const uint64_t n = src.size();
  auto& pool = gpu::thread_pool::instance();
  const unsigned workers = pool.size();

  std::vector<worker_hist> hists(workers);
  for (auto& h : hists) h.counts.fill(0);

  pool.parallel_ranges(n, [&](unsigned w, uint64_t begin, uint64_t end) {
    auto& counts = hists[w].counts;
    for (uint64_t i = begin; i < end; ++i)
      ++counts[(src[i] >> shift) & (kBuckets - 1)];
  });

  // Skip the scatter when a single bucket holds everything.
  {
    std::array<uint64_t, kBuckets> total{};
    for (auto& h : hists)
      for (int b = 0; b < kBuckets; ++b) total[b] += h.counts[b];
    for (int b = 0; b < kBuckets; ++b)
      if (total[b] == n) return true;
    // Exclusive prefix over (bucket, worker) in bucket-major order gives
    // each worker its stable scatter base per bucket.
    uint64_t running = 0;
    for (int b = 0; b < kBuckets; ++b) {
      for (auto& h : hists) {
        uint64_t c = h.counts[b];
        h.counts[b] = running;
        running += c;
      }
    }
  }

  pool.parallel_ranges(n, [&](unsigned w, uint64_t begin, uint64_t end) {
    auto& offsets = hists[w].counts;
    for (uint64_t i = begin; i < end; ++i) {
      uint64_t pos = offsets[(src[i] >> shift) & (kBuckets - 1)]++;
      dst[pos] = src[i];
      if constexpr (kWithValues) vdst[pos] = vsrc[i];
    }
  });
  return false;
}

// The serial radix tier: one read pass counts every digit, then one
// stable scatter per digit that is not constant over the batch, all on
// the caller.  Keys below kParallelSortMin keep every count in 32 bits.
// The 256-bucket prefix scans are what a small batch pays for, so the
// counts are bucket-major — counts[digit][pass] — and the scans of all
// passes run as one loop over the buckets, a vector of independent sums;
// the pass count is a template argument so that loop unrolls.
template <bool kWithValues, int kPasses>
void serial_radix(std::span<uint64_t> keys, std::span<uint64_t> values) {
  const uint64_t n = keys.size();
  if (n < 2) return;
  uint32_t counts[kBuckets][kPasses] = {};
  for (const uint64_t k : keys)
    for (int p = 0; p < kPasses; ++p)
      ++counts[(k >> (p * kDigitBits)) & (kBuckets - 1)][p];
  // A digit every key shares needs no scatter.
  bool scatter[kPasses];
  for (int p = 0; p < kPasses; ++p) {
    const uint64_t digit = (keys[0] >> (p * kDigitBits)) & (kBuckets - 1);
    scatter[p] = counts[digit][p] != n;
  }
  uint32_t running[kPasses] = {};
  for (int d = 0; d < kBuckets; ++d)
    for (int p = 0; p < kPasses; ++p) {
      const uint32_t here = counts[d][p];
      counts[d][p] = running[p];
      running[p] += here;
    }

  std::vector<uint64_t> key_buf(n);
  std::vector<uint64_t> val_buf(kWithValues ? n : 0);
  std::span<uint64_t> a = keys, b = key_buf;
  std::span<uint64_t> va = values, vb = val_buf;
  for (int p = 0; p < kPasses; ++p) {
    if (!scatter[p]) continue;
    const int shift = p * kDigitBits;
    for (uint64_t i = 0; i < n; ++i) {
      const uint32_t pos = counts[(a[i] >> shift) & (kBuckets - 1)][p]++;
      b[pos] = a[i];
      if constexpr (kWithValues) vb[pos] = va[i];
    }
    std::swap(a, b);
    if constexpr (kWithValues) std::swap(va, vb);
  }
  if (a.data() != keys.data()) {
    std::memcpy(keys.data(), a.data(), n * sizeof(uint64_t));
    if constexpr (kWithValues)
      std::memcpy(values.data(), va.data(), n * sizeof(uint64_t));
  }
}

template <bool kWithValues>
void serial_radix(std::span<uint64_t> keys, std::span<uint64_t> values,
                  int key_bits) {
  switch (radix_passes(key_bits)) {
    case 0:
    case 1: return serial_radix<kWithValues, 1>(keys, values);
    case 2: return serial_radix<kWithValues, 2>(keys, values);
    case 3: return serial_radix<kWithValues, 3>(keys, values);
    case 4: return serial_radix<kWithValues, 4>(keys, values);
    case 5: return serial_radix<kWithValues, 5>(keys, values);
    case 6: return serial_radix<kWithValues, 6>(keys, values);
    case 7: return serial_radix<kWithValues, 7>(keys, values);
    default: return serial_radix<kWithValues, 8>(keys, values);
  }
}

template <bool kWithValues>
void comparison(std::span<uint64_t> keys, std::span<uint64_t> values) {
  const uint64_t n = keys.size();
  if constexpr (kWithValues) {
    std::vector<std::pair<uint64_t, uint64_t>> tmp(n);
    for (uint64_t i = 0; i < n; ++i) tmp[i] = {keys[i], values[i]};
    std::stable_sort(tmp.begin(), tmp.end(),
                     [](auto& a, auto& b) { return a.first < b.first; });
    for (uint64_t i = 0; i < n; ++i) {
      keys[i] = tmp[i].first;
      values[i] = tmp[i].second;
    }
  } else {
    std::sort(keys.begin(), keys.end());
  }
}

template <bool kWithValues>
void radix_sort_impl(std::span<uint64_t> keys, std::span<uint64_t> values,
                     int key_bits) {
  const uint64_t n = keys.size();
  if (n < 2) return;
  if (n < serial_radix_sort_min(key_bits)) {
    comparison<kWithValues>(keys, values);
    return;
  }
  if (n < kParallelSortMin) {
    serial_radix<kWithValues>(keys, values, key_bits);
    return;
  }

  std::vector<uint64_t> key_buf(n);
  std::vector<uint64_t> val_buf(kWithValues ? n : 0);
  std::span<uint64_t> a = keys, b = key_buf;
  std::span<uint64_t> va = values, vb = val_buf;

  const int passes = radix_passes(key_bits);
  for (int p = 0; p < passes; ++p) {
    bool skipped = radix_pass<kWithValues>(a, b, va, vb, p * kDigitBits);
    if (!skipped) {
      std::swap(a, b);
      if constexpr (kWithValues) std::swap(va, vb);
    }
  }
  if (a.data() != keys.data()) {
    std::memcpy(keys.data(), a.data(), n * sizeof(uint64_t));
    if constexpr (kWithValues)
      std::memcpy(values.data(), va.data(), n * sizeof(uint64_t));
  }
}

}  // namespace

void radix_sort(std::span<uint64_t> keys) { radix_sort(keys, 64); }

void radix_sort(std::span<uint64_t> keys, int key_bits) {
  radix_sort_impl<false>(keys, {}, key_bits);
}

void radix_sort_by_key(std::span<uint64_t> keys, std::span<uint64_t> values,
                       int key_bits) {
  radix_sort_impl<true>(keys, values, key_bits);
}

namespace tier {

void comparison_by_key(std::span<uint64_t> keys, std::span<uint64_t> values) {
  comparison<true>(keys, values);
}

void serial_radix_by_key(std::span<uint64_t> keys, std::span<uint64_t> values,
                         int key_bits) {
  serial_radix<true>(keys, values, key_bits);
}

}  // namespace tier

}  // namespace gf::par
