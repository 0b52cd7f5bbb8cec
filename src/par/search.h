// Touched runs: the per-region buffers of a sorted bulk batch.
//
// The GQF bulk path marks per-region buffers with "pointers into the input
// array" instead of materializing temporary buffers (paper §5.3).  After
// sorting, those pointers are exactly the maximal same-region runs of the
// batch: one linear pass finds them, with no atomics and no per-region
// search.  Bulk phases launch one logical thread per run — per block or
// region the batch touches — so a launch scales with the batch, never with
// the table (on a GPU the idle threads of a full-grid launch are free; on
// the host pool they are not).  A run list is never longer than the batch
// or the region count, and each touched region still has exactly one
// writer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gf::par {

/// A maximal run of sorted[begin, end) whose items share `region`.
struct touched_run {
  uint64_t region;
  uint64_t begin;
  uint64_t end;
};

/// The maximal same-region runs of `sorted`, in ascending region order.
/// `region_of` must be monotone non-decreasing over the sorted span.
template <class RegionOf>
std::vector<touched_run> touched_runs(std::span<const uint64_t> sorted,
                                      RegionOf&& region_of) {
  std::vector<touched_run> runs;
  const uint64_t n = sorted.size();
  uint64_t begin = 0;
  while (begin < n) {
    const uint64_t region = region_of(sorted[begin]);
    uint64_t end = begin + 1;
    while (end < n && region_of(sorted[end]) == region) ++end;
    runs.push_back({region, begin, end});
    begin = end;
  }
  return runs;
}

/// Bucket runs by `region % stride` for a phased schedule: phase p launches
/// over buckets[p], whose regions are pairwise at least `stride` apart.
/// Each bucket keeps ascending region order.
inline std::vector<std::vector<touched_run>> phase_buckets(
    std::span<const touched_run> runs, uint64_t stride) {
  std::vector<std::vector<touched_run>> buckets(stride);
  for (const touched_run& r : runs) buckets[r.region % stride].push_back(r);
  return buckets;
}

}  // namespace gf::par
