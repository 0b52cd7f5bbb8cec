// The TCF backing table (paper §4.1 "Backing table").
//
// "To avoid insertion failures (no empty slot in both blocks) before
//  reaching a 90% load factor we use a backing table.  We use a small
//  double-hashing-based backing table sized to 1/100th of the size of the
//  main table for storing any items that fail to be inserted."
//
// Probes are capped at 20 positions — the paper's worst case for negative
// queries ("can probe up to 20 buckets in the worst case", §6.1).  The
// table stores the same slot composites (fingerprint [+ value]) as the
// main table, at positions derived from the key's two digests, and uses
// the same empty/tombstone sentinels.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "gpu/atomics.h"
#include "tcf/tcf_params.h"
#include "util/counters.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/prefetch.h"

namespace gf::tcf {

class backing_table {
 public:
  static constexpr unsigned kMaxProbes = 20;

  explicit backing_table(uint64_t capacity)
      : slots_(capacity < kMaxProbes ? kMaxProbes : capacity, kEmpty) {}

  backing_table(backing_table&& other) noexcept
      : slots_(std::move(other.slots_)),
        // relaxed: move/ctor runs single-threaded by contract.
        live_(other.live_.load(std::memory_order_relaxed)) {}
  backing_table& operator=(backing_table&& other) noexcept {
    slots_ = std::move(other.slots_);
    // relaxed: move/ctor runs single-threaded by contract.
    live_.store(other.live_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  uint64_t capacity() const { return slots_.size(); }
  // relaxed: monotone gauge read; a stale value is acceptable.
  uint64_t size() const { return live_.load(std::memory_order_relaxed); }
  size_t memory_bytes() const { return slots_.size() * sizeof(uint16_t); }

  /// Insert the slot composite for a key with digests (h1, h2).
  /// Fails only when all probe positions are occupied.
  bool insert(uint64_t h1, uint64_t h2, uint16_t composite) {
    for (unsigned probe = 0; probe < kMaxProbes; ++probe) {
      uint16_t* slot = &slots_[position(h1, h2, probe)];
      for (;;) {
        uint16_t cur = gpu::atomic_load(slot);
        if (cur != kEmpty && cur != kTombstone) break;  // occupied; next
        if (gpu::atomic_cas_bool(slot, cur, composite)) {
          // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
          live_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        // CAS race: re-read this slot (it may have become occupied).
      }
    }
    return false;
  }

  /// Membership on the fingerprint portion (`composite >> val_bits`).
  /// Stops at the first empty slot: tombstones do not terminate probing.
  bool contains(uint64_t h1, uint64_t h2, uint16_t fp,
                unsigned val_bits) const {
    for (unsigned probe = 0; probe < kMaxProbes; ++probe) {
      GF_COUNT(cache_lines_touched, 1);
      uint16_t cur = gpu::atomic_load(&slots_[position(h1, h2, probe)]);
      if (cur == kEmpty) return false;
      if (cur != kTombstone && static_cast<uint16_t>(cur >> val_bits) == fp)
        return true;
    }
    return false;
  }

  /// Start fetching the first slot contains(h1, h2, ...) reads.
  void prefetch(uint64_t h1, uint64_t h2) const {
    util::prefetch_line(&slots_[position(h1, h2, 0)]);
  }

  /// Lookup returning the stored value bits.
  std::optional<uint16_t> find_value(uint64_t h1, uint64_t h2, uint16_t fp,
                                     unsigned val_bits) const {
    for (unsigned probe = 0; probe < kMaxProbes; ++probe) {
      uint16_t cur = gpu::atomic_load(&slots_[position(h1, h2, probe)]);
      if (cur == kEmpty) return std::nullopt;
      if (cur != kTombstone && static_cast<uint16_t>(cur >> val_bits) == fp)
        return static_cast<uint16_t>(cur & ((1u << val_bits) - 1));
    }
    return std::nullopt;
  }

  /// Remove one instance matching the fingerprint portion.
  bool erase(uint64_t h1, uint64_t h2, uint16_t fp, unsigned val_bits) {
    for (unsigned probe = 0; probe < kMaxProbes; ++probe) {
      uint16_t* slot = &slots_[position(h1, h2, probe)];
      uint16_t cur = gpu::atomic_load(slot);
      if (cur == kEmpty) return false;
      if (cur != kTombstone && static_cast<uint16_t>(cur >> val_bits) == fp) {
        if (gpu::atomic_cas_bool(slot, cur, kTombstone)) {
          // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
          live_.fetch_sub(1, std::memory_order_relaxed);
          return true;
        }
        --probe;  // raced; retry this position
      }
    }
    return false;
  }

  /// Visit every live composite (enumeration support for the owner).
  template <class Fn>
  void for_each_slot(Fn&& fn) const {
    for (const uint16_t& slot : slots_) {
      uint16_t v = gpu::atomic_load(&slot);
      if (v != kEmpty && v != kTombstone) fn(v);
    }
  }

  /// Serialization (no header of its own; embedded in the owning filter).
  void save(std::ostream& out) const {
    // relaxed: save()/load() are not thread-safe against writers by contract.
    util::write_pod(out, live_.load(std::memory_order_relaxed));
    util::write_vec(out, slots_);
  }
  void load(std::istream& in) {
    uint64_t live = util::read_pod<uint64_t>(in);
    slots_ = util::read_vec<uint16_t>(in);
    // relaxed: save()/load() are not thread-safe against writers by contract.
    live_.store(live, std::memory_order_relaxed);
  }

 private:
  uint64_t position(uint64_t h1, uint64_t h2, unsigned probe) const {
    // Double hashing: h1 selects the start, (h2 | 1) the stride.
    return util::fast_range(h1 + probe * (h2 | 1), slots_.size());
  }

  std::vector<uint16_t> slots_;
  std::atomic<uint64_t> live_{0};
};

}  // namespace gf::tcf
