// The GQF bulk-insertion API (paper §5.3–5.4): the coordinated lock-free
// even-odd scheme.
//
// "In the bulk API, we group items that hash to the same region and a
//  single thread is assigned to each region ... In the first phase, items
//  belonging to even regions are inserted ... In the second phase, the
//  items belonging to the odd regions are inserted."  Regions are 8192
// slots, so during a phase concurrent writers are ~16K slots apart and
// every shift completes before reaching the next active region.
//
// Batches are sorted first (§5.3 "Sorting hashes") — remainders then enter
// each run in sorted order and almost never shift already-stored items —
// and region buffers are the batch's touched runs, found by one linear
// scan over the sorted batch instead of atomics (§5.3); each phase
// launches one thread per touched region of its parity, so a small batch
// never pays for the whole table.  For skewed batches, the map-reduce
// option compresses duplicates into (item, count) pairs before insertion
// (§5.4), turning hot-key storms into single counted inserts.
//
// Deletions follow the same even-odd scheme and process each region's
// batch in descending order ("deleting larger items first", §6.4) so runs
// shrink from the tail and left-shifts stay minimal.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "gpu/launch.h"
#include "gqf/gqf.h"
#include "par/radix_sort.h"
#include "par/reduce_by_key.h"
#include "par/search.h"

namespace gf::gqf {

struct bulk_stats {
  uint64_t inserted = 0;   ///< items placed (sum of counts)
  uint64_t failed = 0;     ///< items refused (filter full)
  uint64_t deferred = 0;   ///< items that needed the serial cleanup pass
};

namespace detail {

/// Run one even/odd phase over the touched regions of one parity: each
/// region's sorted span is inserted by exactly one logical thread, bounded
/// to stay short of the next active region; refusals are deferred.
template <class SlotT, class Emit>
void run_phase(gqf_filter<SlotT>& f, std::span<const uint64_t> hashes,
               std::span<const uint64_t> counts,
               std::span<const par::touched_run> runs, Emit&& defer) {
  const uint64_t num_regions = f.num_regions();
  gpu::launch_threads(
      runs.size(),
      [&](uint64_t ri) {
        const auto [region, begin, end] = runs[ri];
        // Stop one metadata block short of the next active region: its
        // first operation reads run_end(q-1), which touches the preceding
        // block's offset word; keeping our writes out of that block makes
        // the phases genuinely disjoint.  The last region may use the
        // padding slots freely (nothing is active beyond it).
        uint64_t limit = (region + 2) * kRegionSlots - kBlockSlots;
        if (region + 2 >= num_regions || limit > f.total_slots())
          limit = f.total_slots();
        for (uint64_t i = begin; i < end; ++i) {
          uint64_t c = counts.empty() ? 1 : counts[i];
          if (!f.insert_hash_bounded(hashes[i], c, limit)) defer(hashes[i], c);
        }
      },
      /*grain=*/1);
}

/// Shared even-odd core: `hashes` are sorted (and, when `counts` is
/// non-empty, already reduced to distinct values with multiplicities).
/// Runs both phases plus the serial cleanup pass and fills stats.failed /
/// stats.deferred; callers own the instance accounting.
template <class SlotT>
void insert_sorted_hashes(gqf_filter<SlotT>& f,
                          std::span<const uint64_t> hashes,
                          std::span<const uint64_t> counts,
                          bulk_stats& stats) {
  const auto phases = par::phase_buckets(
      par::touched_runs(hashes,
                        [&](uint64_t h) { return f.region_of_hash(h); }),
      /*stride=*/2);

  // Deferred items land in a preallocated array through a shared cursor.
  std::vector<uint64_t> defer_h(hashes.size());
  std::vector<uint64_t> defer_c(hashes.size());
  std::atomic<uint64_t> cursor{0};
  auto defer = [&](uint64_t h, uint64_t c) {
    // relaxed: cursor hands out disjoint indices; data is read after the join.
    uint64_t at = cursor.fetch_add(1, std::memory_order_relaxed);
    defer_h[at] = h;
    defer_c[at] = c;
  };

  for (const auto& phase : phases) run_phase(f, hashes, counts, phase, defer);

  // Serial cleanup: items whose region neighbourhood was too dense (only
  // happens near capacity) get unbounded single-threaded inserts.
  uint64_t deferred = cursor.load();
  stats.deferred = deferred;
  for (uint64_t i = 0; i < deferred; ++i) {
    if (!f.insert_hash(defer_h[i], defer_c[i])) stats.failed += defer_c[i];
  }
}

}  // namespace detail

/// Bulk insert a batch of keys.  With `map_reduce` the batch is first
/// compressed into (hash, count) pairs (the §5.4 skew optimization).
template <class SlotT>
bulk_stats bulk_insert(gqf_filter<SlotT>& f, std::span<const uint64_t> keys,
                       bool map_reduce = false) {
  bulk_stats stats;
  const uint64_t n = keys.size();
  if (n == 0) return stats;

  std::vector<uint64_t> hashes(n);
  gpu::launch_threads(n, [&](uint64_t i) { hashes[i] = f.hash_of(keys[i]); });
  par::radix_sort(hashes, static_cast<int>(f.fingerprint_bits()));

  std::vector<uint64_t> counts;
  if (map_reduce) {
    auto reduced = par::reduce_by_key(hashes);
    hashes = std::move(reduced.keys);
    counts = std::move(reduced.counts);
  }

  detail::insert_sorted_hashes(f, hashes, counts, stats);

  uint64_t total = 0;
  if (counts.empty())
    total = n;
  else
    for (uint64_t c : counts) total += c;
  stats.inserted = total - stats.failed;
  return stats;
}

/// Counted bulk insert: place counts[i] instances of keys[i] through the
/// same even-odd schedule.  This is the §5.4 map-reduce path with the
/// reduction done by the caller (the sharded store compresses each batch
/// into (key, count) pairs before it reaches the backend); equal hashes in
/// the batch are merged again here so each distinct fingerprint still
/// performs one counted insertion.
template <class SlotT>
bulk_stats bulk_insert_counted(gqf_filter<SlotT>& f,
                               std::span<const uint64_t> keys,
                               std::span<const uint64_t> counts) {
  bulk_stats stats;
  const uint64_t n = keys.size();
  if (n == 0) return stats;

  std::vector<uint64_t> hashes(n);
  std::vector<uint64_t> weights(counts.begin(), counts.end());
  gpu::launch_threads(n, [&](uint64_t i) { hashes[i] = f.hash_of(keys[i]); });
  par::radix_sort_by_key(hashes, weights,
                         static_cast<int>(f.fingerprint_bits()));
  auto reduced = par::reduce_by_key(hashes, weights);

  detail::insert_sorted_hashes(f, reduced.keys, reduced.counts, stats);

  uint64_t total = 0;
  for (uint64_t c : reduced.counts) total += c;
  stats.inserted = total - stats.failed;
  return stats;
}

/// Bulk membership count (lockless parallel reads; callers must not run
/// writers concurrently — bulk APIs are host-phased, paper Table 1).
template <class SlotT>
uint64_t bulk_count_contained(const gqf_filter<SlotT>& f,
                              std::span<const uint64_t> keys) {
  return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
    uint64_t found = 0;
    for (uint64_t i = begin; i < end; ++i) found += f.contains(keys[i]);
    return found;
  });
}

/// Per-key counts, preserving input order.
template <class SlotT>
std::vector<uint64_t> bulk_query_counts(const gqf_filter<SlotT>& f,
                                        std::span<const uint64_t> keys) {
  std::vector<uint64_t> out(keys.size());
  gpu::launch_threads(keys.size(),
                      [&](uint64_t i) { out[i] = f.query(keys[i]); });
  return out;
}

/// Bulk delete (one instance per key occurrence in the batch).  Returns
/// the number of instances removed.
template <class SlotT>
uint64_t bulk_erase(gqf_filter<SlotT>& f, std::span<const uint64_t> keys) {
  const uint64_t n = keys.size();
  if (n == 0) return 0;
  std::vector<uint64_t> hashes(n);
  gpu::launch_threads(n, [&](uint64_t i) { hashes[i] = f.hash_of(keys[i]); });
  par::radix_sort(hashes, static_cast<int>(f.fingerprint_bits()));

  // Deletion rewrites whole clusters and peeks one slot past the cluster
  // on both sides, so active regions need two idle regions between them:
  // a stride-4 phase schedule (the paper's even-odd shifter peeks less;
  // see DESIGN.md §4).
  const auto phases = par::phase_buckets(
      par::touched_runs(hashes,
                        [&](uint64_t h) { return f.region_of_hash(h); }),
      /*stride=*/4);
  std::atomic<uint64_t> removed{0};
  for (const auto& phase : phases) {
    gpu::launch_threads(
        phase.size(),
        [&](uint64_t ri) {
          const par::touched_run& run = phase[ri];
          // Descending order: larger remainders first (§6.4).
          uint64_t local = 0;
          for (uint64_t i = run.end; i > run.begin; --i)
            if (f.remove_hash(hashes[i - 1], 1)) ++local;
          // relaxed: worker-private tally; the launch join publishes it to the reader.
          if (local) removed.fetch_add(local, std::memory_order_relaxed);
        },
        /*grain=*/1);
  }
  return removed.load();
}

}  // namespace gf::gqf
