// reduce_by_key over a sorted batch — the substrate's stand-in for
// thrust::reduce_by_key.
//
// The GQF's skew optimization (paper §5.4) maps each batch to sorted order
// and reduces duplicate items into (item, count) pairs so that a Zipfian
// batch performs one counted insertion per distinct item instead of one
// insertion per instance.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "gpu/thread_pool.h"

namespace gf::par {

/// Cheap skew probe for deciding whether §5.4 compression (or a dedup
/// sort) will pay for itself: a strided ~1k-key sample checked for
/// duplicates in a stack-resident open-addressing table.  A hot key at
/// ≥0.5% of the batch appears twice in the sample with high probability,
/// and the flood rates that actually endanger a filter (a key claiming
/// whole blocks) are far above that; a uniform 64-bit batch essentially
/// never trips it.  The converse is not promised: keys repeated a few
/// times each, far apart in the batch, rarely land twice in the sample,
/// so such a batch passes as duplicate-free and the point TCF's sorted
/// insert then stores one slot per copy.  O(1k) work regardless of batch
/// size — noise next to one radix pass.
inline bool sample_has_duplicates(std::span<const uint64_t> keys) {
  const uint64_t n = keys.size();
  if (n < 2) return false;
  constexpr uint64_t kSample = 1024;
  constexpr uint64_t kSlots = 2048;  // ≤50% load keeps probes short
  std::array<uint64_t, kSlots> table{};  // 0 == empty slot
  const uint64_t samples = n < kSample ? n : kSample;
  const uint64_t stride = n / samples;
  uint64_t zeros = 0;
  for (uint64_t j = 0; j < samples; ++j) {
    uint64_t k = keys[j * stride];
    if (k == 0) {  // 0 is the table's empty sentinel; count it separately
      if (++zeros > 1) return true;
      continue;
    }
    uint64_t slot = (k * 0x9E3779B97F4A7C15ull) >> 32 & (kSlots - 1);
    for (;;) {
      if (table[slot] == 0) {
        table[slot] = k;
        break;
      }
      if (table[slot] == k) return true;
      slot = (slot + 1) & (kSlots - 1);
    }
  }
  return false;
}

struct keyed_counts {
  std::vector<uint64_t> keys;    ///< distinct keys, in sorted order
  std::vector<uint64_t> counts;  ///< counts[i] = multiplicity of keys[i]
};

namespace detail {

/// Shared skeleton: `weight_of(i)` is the contribution of element i to its
/// run's count (1 for the plain reduction, weights[i] for the weighted one).
template <class WeightOf>
keyed_counts reduce_by_key_impl(std::span<const uint64_t> sorted,
                                WeightOf&& weight_of) {
  keyed_counts out;
  const uint64_t n = sorted.size();
  if (n == 0) return out;

  auto& pool = gpu::thread_pool::instance();
  const unsigned workers = pool.size();

  // Phase 1: each worker takes a range snapped forward to a key boundary,
  // so every run of equal keys is wholly owned by one worker.
  std::vector<uint64_t> range_begin(workers + 1, n);
  pool.parallel_ranges(n, [&](unsigned w, uint64_t begin, uint64_t end) {
    // Snap begin forward past any run that started before it.
    while (begin < end && begin > 0 && sorted[begin] == sorted[begin - 1])
      ++begin;
    range_begin[w] = begin;
  });
  range_begin[0] = 0;

  // A worker's nominal range may have been entirely swallowed by the
  // previous run; normalize begins to be monotone.
  for (unsigned w = 1; w < workers; ++w)
    if (range_begin[w] < range_begin[w - 1])
      range_begin[w] = range_begin[w - 1];
  range_begin[workers] = n;

  // Phases 2 and 3 launch over phase 1's n, so the pool splits all three
  // alike and worker w walks its own snapped range (empty when phase 1
  // gave it none).
  // Phase 2: recount per final ranges: distinct keys whose run *ends*
  // inside the range.  (Simpler and safe: a run ends at i when
  // sorted[i] != sorted[i+1] or i == n-1; every run ends exactly once.)
  std::vector<uint64_t> distinct(workers, 0);
  pool.parallel_ranges(n, [&](unsigned w, uint64_t, uint64_t) {
    uint64_t begin = range_begin[w], end = range_begin[w + 1], u = 0;
    for (uint64_t i = begin; i < end; ++i)
      if (i + 1 == n || sorted[i] != sorted[i + 1]) ++u;
    distinct[w] = u;
  });

  uint64_t total = 0;
  std::vector<uint64_t> offset(workers + 1, 0);
  for (unsigned w = 0; w < workers; ++w) {
    offset[w] = total;
    total += distinct[w];
  }
  offset[workers] = total;

  out.keys.resize(total);
  out.counts.resize(total);

  // Phase 3: emit.  Begins are boundary-snapped, but a run longer than a
  // whole nominal range swallows the ranges it covers and *ends* inside a
  // later worker's range — that worker owns the run (a run ends exactly
  // once, so ownership is unambiguous) and must walk back to the run's
  // true start to pick up the weight that accrued in earlier ranges.
  pool.parallel_ranges(n, [&](unsigned w, uint64_t, uint64_t) {
    uint64_t begin = range_begin[w], end = range_begin[w + 1];
    uint64_t slot = offset[w];
    uint64_t run_weight = 0;
    if (begin < end && begin > 0 && sorted[begin] == sorted[begin - 1]) {
      for (uint64_t i = begin; i > 0 && sorted[i - 1] == sorted[begin]; --i)
        run_weight += weight_of(i - 1);
    }
    for (uint64_t i = begin; i < end; ++i) {
      run_weight += weight_of(i);
      if (i + 1 == n || sorted[i] != sorted[i + 1]) {
        out.keys[slot] = sorted[i];
        out.counts[slot] = run_weight;
        ++slot;
        run_weight = 0;
      }
    }
  });
  return out;
}

}  // namespace detail

/// Compress a *sorted* span into (distinct key, count) pairs, in parallel.
inline keyed_counts reduce_by_key(std::span<const uint64_t> sorted) {
  return detail::reduce_by_key_impl(sorted, [](uint64_t) { return 1; });
}

/// Weighted reduction: counts[i] becomes the *sum of weights* over the run
/// of keys[i].  The store's batched path uses this to merge already-counted
/// (key, count) pairs — e.g. compressed insert ops — without re-expansion.
inline keyed_counts reduce_by_key(std::span<const uint64_t> sorted,
                                  std::span<const uint64_t> weights) {
  return detail::reduce_by_key_impl(sorted,
                                    [&](uint64_t i) { return weights[i]; });
}

}  // namespace gf::par
