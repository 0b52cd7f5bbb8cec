// Even-odd bulk insertion for a plain Robin Hood hash table — the
// generalization the paper claims in §1: "we believe that our even-odd
// scheme for bulk insertions can also be applied to other linear-probing-
// based hash tables to accelerate insertions [IcebergHT] and also for
// storing dynamic graphs on GPUs."
//
// This is that claim, implemented: a Robin Hood (key, value) table whose
// bulk path sorts the batch by home slot, splits it into the 8192-slot
// regions it touches with one linear scan, and runs two phases of
// region-exclusive insertions — the same recipe as the GQF's bulk API
// (§5.3), applied to a table with displacement chains instead of runs.
// Sorting additionally kills the displacement work (each arrival's home is
// >= the previous one's, so chains never re-displace sorted predecessors),
// mirroring the §5.3 shift-work collapse.  `ablation_gqf` measures both effects.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gpu/launch.h"
#include "par/radix_sort.h"
#include "par/search.h"
#include "util/bits.h"
#include "util/hash.h"

namespace gf::par {

class even_odd_table {
 public:
  static constexpr uint64_t kRegionSlots = 8192;

  /// Capacity is rounded up to whole regions plus one spill region.
  explicit even_odd_table(uint64_t min_capacity)
      : capacity_((min_capacity + kRegionSlots - 1) / kRegionSlots *
                      kRegionSlots +
                  kRegionSlots),
        keys_(capacity_, kEmpty),
        values_(capacity_, 0) {}

  uint64_t capacity() const { return capacity_; }
  // relaxed: monotone gauge read; a stale value is acceptable.
  uint64_t size() const { return live_.load(std::memory_order_relaxed); }
  double load_factor() const {
    return static_cast<double>(size()) / static_cast<double>(capacity_);
  }

  /// Home slot of a key (probe sequences are linear from here).
  uint64_t home_of(uint64_t key) const {
    return util::fast_range(util::murmur64(key ^ kSeed),
                            capacity_ - kRegionSlots);
  }

  /// Point insert (not thread-safe; the bulk path is the concurrent one).
  /// Overwrites the value of an existing key.
  bool insert(uint64_t key, uint64_t value) {
    return insert_bounded(key, value, capacity_);
  }

  std::optional<uint64_t> find(uint64_t key) const {
    uint64_t home = home_of(key);
    for (uint64_t i = home; i < capacity_; ++i) {
      if (keys_[i] == key) return values_[i];
      if (keys_[i] == kEmpty) return std::nullopt;
      // Robin Hood early exit: once occupants are closer to their own
      // homes than we are to ours, the key cannot be further along.
      if (i - home_of(keys_[i]) < i - home) return std::nullopt;
    }
    return std::nullopt;
  }

  struct bulk_stats {
    uint64_t inserted = 0;
    uint64_t deferred = 0;
    uint64_t failed = 0;
  };

  /// Sorted, even-odd phased bulk insert (the §1 generalization).
  bulk_stats bulk_insert(std::span<const uint64_t> keys,
                         std::span<const uint64_t> values) {
    bulk_stats stats;
    const uint64_t n = keys.size();
    if (n == 0) return stats;

    // Sort (home, value-index) so each region's batch arrives in home
    // order; carry the original index to fetch the value.
    std::vector<uint64_t> homes(n), order(n);
    gpu::launch_threads(n, [&](uint64_t i) {
      homes[i] = home_of(keys[i]);
      order[i] = i;
    });
    radix_sort_by_key(homes, order, util::log2_ceil(capacity_) + 1);

    const auto phases = phase_buckets(
        touched_runs(homes, [](uint64_t h) { return h / kRegionSlots; }),
        /*stride=*/2);

    std::vector<uint64_t> defer_idx(n);
    std::atomic<uint64_t> cursor{0};
    for (const auto& phase : phases) {
      gpu::launch_threads(
          phase.size(),
          [&](uint64_t ri) {
            const auto [region, begin, end] = phase[ri];
            uint64_t limit = (region + 2) * kRegionSlots;
            if (limit > capacity_) limit = capacity_;
            for (uint64_t i = begin; i < end; ++i) {
              uint64_t idx = order[i];
              // relaxed: cursor hands out disjoint indices; data is read after the join.
              if (!insert_bounded(keys[idx], values[idx], limit))
                defer_idx[cursor.fetch_add(1, std::memory_order_relaxed)] =
                    idx;
            }
          },
          /*grain=*/1);
    }

    stats.deferred = cursor.load();
    for (uint64_t i = 0; i < stats.deferred; ++i) {
      uint64_t idx = defer_idx[i];
      if (!insert_bounded(keys[idx], values[idx], capacity_)) ++stats.failed;
    }
    stats.inserted = n - stats.failed;
    return stats;
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr uint64_t kSeed = 0x1f83d9abfb41bd6bULL;

  /// Robin Hood insert whose displacement chain must stay below `limit`.
  /// Pre-flight: a Robin Hood walk advances one slot per step and ends at
  /// the first empty slot >= home, so locating that slot up front decides
  /// the whole operation before any mutation — a refusal is side-effect
  /// free (the SQF/GQF phase-safety recipe).
  bool insert_bounded(uint64_t key, uint64_t value, uint64_t limit) {
    const uint64_t home = home_of(key);
    uint64_t e = home;
    while (e < limit && keys_[e] != kEmpty && keys_[e] != key) ++e;
    if (e >= limit) return false;  // chain could cross the phase boundary
    if (keys_[e] == key) {
      values_[e] = value;  // overwrite semantics
      return true;
    }
    uint64_t cur_key = key, cur_val = value;
    uint64_t cur_home = home;
    for (uint64_t i = home;; ++i) {
      if (keys_[i] == kEmpty) {
        keys_[i] = cur_key;
        values_[i] = cur_val;
        // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
        live_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      uint64_t their_dist = i - home_of(keys_[i]);
      if (their_dist < i - cur_home) {
        // Rob the rich: swap and keep walking for the displaced entry.
        std::swap(cur_key, keys_[i]);
        std::swap(cur_val, values_[i]);
        cur_home = home_of(cur_key);
      }
    }
  }

  uint64_t capacity_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> values_;
  std::atomic<uint64_t> live_{0};
};

}  // namespace gf::par
