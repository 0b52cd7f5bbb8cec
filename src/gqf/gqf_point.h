// The GQF point-insertion API (paper §5.2).
//
// "each thread acquires exclusive access to a section of memory ... the
//  slots are divided into locking regions that are big enough to handle
//  the shifting of remainders during insertions without causing an
//  overflow to the next locking region ... An insert thread grabs two
//  locks corresponding to the canonical slot of the item and the lock
//  immediately after it ... we used cache-aligned locks."
//
// Regions are 8192 slots; at the supported load factor the longest cluster
// stays well below one region (§5.2), so an operation on quotient q only
// touches regions region(q)-1 .. region(q)+1:
//   * run_start(q) may read the tail of the preceding region when q sits
//     at a region boundary, and a deletion's cluster rewrite can walk back
//     across the boundary — so unlike the paper's two-lock description we
//     also hold the *preceding* region's lock.  (The GPU implementation
//     shares the underlying hazard; holding three ascending locks removes
//     it at negligible cost and cannot deadlock, since every thread
//     acquires its locks in ascending region order.)
//   * Queries are lockless, as in the paper's evaluation: the benchmarked
//     phases never run queries concurrently with inserts.  `*_locked`
//     query variants are provided for applications that mix queries with
//     concurrent point writers — deletions rewrite whole clusters, so a
//     lockless probe overlapping an erase is a data race, not just a
//     stale answer.  The filter store routes its point reads through the
//     locked variants (its service contract promises mixed-op safety);
//     the benchmark kernels keep the lockless probe.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gpu/atomics.h"
#include "gpu/launch.h"
#include "gqf/gqf.h"

namespace gf::gqf {

template <class SlotT>
class gqf_point {
 public:
  gqf_point(uint32_t q_bits, uint32_t r_bits)
      : filter_(q_bits, r_bits), locks_(filter_.num_regions() + 1) {}

  /// Wrap an existing core filter (e.g. one restored from a stream) in a
  /// fresh set of region locks.
  explicit gqf_point(gqf_filter<SlotT>&& f)
      : filter_(std::move(f)), locks_(filter_.num_regions() + 1) {}

  /// Serialization delegates to the core filter (same on-disk format, so
  /// point- and core-written files are interchangeable).  Not thread-safe
  /// against concurrent writers.
  void save(std::ostream& out) const { filter_.save(out); }
  static gqf_point load(std::istream& in) {
    return gqf_point(gqf_filter<SlotT>::load(in));
  }

  /// Thread-safe point insert of `count` instances.
  bool insert(uint64_t key, uint64_t count = 1) {
    uint64_t hash = filter_.hash_of(key);
    region_guard guard(*this, filter_.region_of_hash(hash));
    return filter_.insert_hash(hash, count);
  }

  /// Thread-safe value association (counter-channel encoding, §2).
  bool insert_value(uint64_t key, uint64_t value) {
    uint64_t hash = filter_.hash_of(key);
    region_guard guard(*this, filter_.region_of_hash(hash));
    return filter_.insert_hash(hash, value + 1);
  }

  /// Thread-safe insert of a pre-computed fingerprint (callers that have
  /// already hashed, e.g. k-mer pipelines feeding canonical codes).
  bool insert_hash(uint64_t hash, uint64_t count = 1) {
    region_guard guard(*this, filter_.region_of_hash(hash));
    return filter_.insert_hash(hash, count);
  }

  /// Thread-safe delete of a pre-computed fingerprint.
  bool erase_hash(uint64_t hash, uint64_t count = 1) {
    region_guard guard(*this, filter_.region_of_hash(hash));
    return filter_.remove_hash(hash, count);
  }

  /// Lockless query (see header comment).
  uint64_t query(uint64_t key) const { return filter_.query(key); }
  bool contains(uint64_t key) const { return filter_.contains(key); }
  std::optional<uint64_t> query_value(uint64_t key) const {
    return filter_.query_value(key);
  }

  /// Query that excludes concurrent writers to the item's regions (const:
  /// the region locks are mutable, like any reader-side lock).
  uint64_t query_locked(uint64_t key) const {
    uint64_t hash = filter_.hash_of(key);
    region_guard guard(*this, filter_.region_of_hash(hash));
    return filter_.query_hash(hash);
  }
  bool contains_locked(uint64_t key) const { return query_locked(key) > 0; }

  /// Thread-safe point delete.
  bool erase(uint64_t key, uint64_t count = 1) {
    uint64_t hash = filter_.hash_of(key);
    region_guard guard(*this, filter_.region_of_hash(hash));
    return filter_.remove_hash(hash, count);
  }

  // -- Parallel helpers for the point-API benchmarks ------------------------

  uint64_t insert_bulk(std::span<const uint64_t> keys) {
    return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
      uint64_t ok = 0;
      for (uint64_t i = begin; i < end; ++i) ok += insert(keys[i]);
      return ok;
    });
  }

  uint64_t count_contained(std::span<const uint64_t> keys) const {
    return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
      uint64_t found = 0;
      for (uint64_t i = begin; i < end; ++i) found += contains(keys[i]);
      return found;
    });
  }

  uint64_t erase_bulk(std::span<const uint64_t> keys) {
    return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
      uint64_t ok = 0;
      for (uint64_t i = begin; i < end; ++i) ok += erase(keys[i]);
      return ok;
    });
  }

  gqf_filter<SlotT>& filter() { return filter_; }
  const gqf_filter<SlotT>& filter() const { return filter_; }
  size_t memory_bytes() const {
    return filter_.memory_bytes() + locks_.size() * sizeof(locks_[0]);
  }

 private:
  /// Holds the three ascending region locks around a quotient.
  class region_guard {
   public:
    region_guard(const gqf_point& owner, uint64_t region) : owner_(owner) {
      first_ = region == 0 ? 0 : region - 1;
      last_ = std::min<uint64_t>(region + 1, owner.locks_.size() - 1);
      for (uint64_t r = first_; r <= last_; ++r) owner_.locks_[r].lock();
    }
    ~region_guard() {
      for (uint64_t r = first_; r <= last_; ++r) owner_.locks_[r].unlock();
    }
    region_guard(const region_guard&) = delete;
    region_guard& operator=(const region_guard&) = delete;

   private:
    const gqf_point& owner_;
    uint64_t first_, last_;
  };

  gqf_filter<SlotT> filter_;
  // Mutable: locked *queries* are const operations that still take the
  // reader-excluding region locks.
  mutable std::vector<gpu::cache_aligned_lock> locks_;
};

}  // namespace gf::gqf
