// The bulk TCF (paper §4.2).
//
// "The bulk version of the TCF utilizes sorting to increase the efficiency
//  of read/write operations ... Items are sorted and passed to the bulk
//  TCF as a sorted list of items to be inserted into a block.  Blocks ...
//  are loaded into shared memory before items are inserted ... kernel
//  writes occur as coalesced writes to global."
//
// Differences from the point TCF, all from the paper:
//  * Blocks keep their fingerprints in sorted order, so queries are a
//    binary search (log-time) instead of a scan.
//  * Inserts are phased host-side bulk operations: a batch is sorted by
//    primary block, and each block merges three sorted lists — the items
//    already stored, the items shortcutted into it, and the items POTC-
//    assigned to it — with a zip merge in (simulated) shared memory,
//    followed by one coalesced write-back.
//  * Blocks are larger (128 slots of 16-bit fingerprints by default),
//    giving the measured ~0.3-0.4% false-positive rate at 16 bits/item.
//
// Phasing (each phase sorts its items by target block; one linear scan
// splits the sorted batch into touched-block runs and one logical thread
// takes each run, so every touched block has exactly one writer — no
// atomics needed inside a phase — and a phase costs O(batch), not
// O(blocks)):
//   A. shortcut:   primary-assigned items fill their block to the 0.75
//                  shortcut cutoff;
//   B. POTC:       deferred items, sorted by secondary block, fill the
//                  secondary to capacity;
//   C. spill-back: still-deferred items return to the primary block and
//                  fill it to capacity;
//   D. backing:    the residue goes to the shared backing table (or
//                  fails when the backing table is disabled).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "gpu/launch.h"
#include "gpu/shared_memory.h"
#include "par/radix_sort.h"
#include "par/search.h"
#include "tcf/backing_table.h"
#include "tcf/tcf_params.h"
#include "util/bits.h"
#include "util/counters.h"
#include "util/hash.h"
#include "util/io.h"

namespace gf::tcf {

template <unsigned FpBits = 16, unsigned NumSlots = 128>
class bulk_tcf {
 public:
  static_assert(FpBits == 16, "bulk blocks store 16-bit fingerprints");
  static_assert(NumSlots >= 8 && NumSlots <= 128);

  static constexpr uint16_t kBulkEmpty = 0xFFFF;
  static constexpr unsigned kSlotsPerBlock = NumSlots;

  /// Expected false-positive rate: 2B / 2^f (paper §4.1/§4.2).
  static constexpr double theoretical_fp_rate() {
    return 2.0 * NumSlots / 65536.0;
  }

  explicit bulk_tcf(uint64_t min_slots, tcf_config cfg = {})
      : cfg_(cfg),
        num_blocks_((min_slots + NumSlots - 1) / NumSlots),
        slots_(num_blocks_ * NumSlots, kBulkEmpty),
        fills_(num_blocks_, 0),
        backing_(cfg.enable_backing
                     ? static_cast<uint64_t>(static_cast<double>(min_slots) *
                                             cfg.backing_fraction)
                     : backing_table::kMaxProbes),
        shortcut_threshold_(static_cast<unsigned>(
            cfg.shortcut_cutoff * static_cast<double>(NumSlots))) {
    if (num_blocks_ == 0) {
      num_blocks_ = 1;
      slots_.assign(NumSlots, kBulkEmpty);
      fills_.assign(1, 0);
    }
  }

  // -- Bulk API (host-side) -------------------------------------------------

  /// Insert a batch; returns the number of items successfully placed.
  uint64_t insert_bulk(std::span<const uint64_t> keys) {
    const uint64_t n = keys.size();
    if (n == 0) return 0;

    // Aggregation: (primary block << 16 | fp) sorted, carrying the
    // secondary block as the payload.
    std::vector<uint64_t> sort_keys(n);
    std::vector<uint64_t> payload(n);
    gpu::launch_threads(n, [&](uint64_t i) {
      hashed h = hash_key(keys[i]);
      sort_keys[i] = (h.b1 << 16) | h.fp;
      payload[i] = h.b2;
    });
    int key_bits = util::log2_ceil(num_blocks_) + 16;
    par::radix_sort_by_key(sort_keys, payload, key_bits);

    // Phase A: shortcut into primary blocks up to the cutoff.
    std::vector<uint64_t> deferred_keys;  // (b2 << 16 | fp)
    std::vector<uint64_t> deferred_b1;
    phase_fill(sort_keys, payload, shortcut_threshold_, &deferred_keys,
               &deferred_b1);

    // Phase B: POTC spill into secondary blocks, to capacity.
    std::vector<uint64_t> spill_keys;  // (b1 << 16 | fp)
    std::vector<uint64_t> spill_unused;
    if (!deferred_keys.empty()) {
      par::radix_sort_by_key(deferred_keys, deferred_b1, key_bits);
      phase_fill(deferred_keys, deferred_b1, NumSlots, &spill_keys,
                 &spill_unused, /*payload_is_next_target=*/true);
    }

    // Phase C: spill back into the primary block, to capacity.
    std::vector<uint64_t> residue_keys;
    std::vector<uint64_t> residue_unused;
    if (!spill_keys.empty()) {
      par::radix_sort_by_key(spill_keys, spill_unused, key_bits);
      // Overflow keeps its (b1 | fp) encoding: the backing table's probe
      // sequence — and the query path's — is derived from b1.
      phase_fill(spill_keys, spill_unused, NumSlots, &residue_keys,
                 &residue_unused, /*payload_is_next_target=*/false);
    }

    // Phase D: residue goes to the backing table.  With the backing table
    // disabled the residue fails, as in point insert: contains() would
    // never look for it there.
    uint64_t failed = 0;
    if (!cfg_.enable_backing) {
      failed = residue_keys.size();
    } else if (!residue_keys.empty()) {
      std::atomic<uint64_t> fails{0};
      gpu::launch_threads(residue_keys.size(), [&](uint64_t i) {
        uint16_t fp = static_cast<uint16_t>(residue_keys[i] & 0xFFFF);
        uint64_t block = residue_keys[i] >> 16;
        // Reconstruct probe digests from (block, fp): the backing table
        // only needs a well-spread position sequence.
        uint64_t h1 = util::murmur64((block << 16) | fp);
        uint64_t h2 = util::mix64_b((block << 16) | fp);
        GF_COUNT(backing_inserts, 1);
        if (!backing_.insert(h1, h2, fp))
          // relaxed: worker-private tally; the launch join publishes it to the reader.
          fails.fetch_add(1, std::memory_order_relaxed);
      });
      failed = fails.load();
    }
    uint64_t inserted = n - failed;
    live_ += inserted;
    return inserted;
  }

  // -- Point ops (host-phased: NOT thread-safe; the store backend wraps
  // -- them in a reader-writer lock) ---------------------------------------

  /// Insert one key, following the same placement order as the phased bulk
  /// path (primary to the shortcut cutoff, secondary to capacity, primary
  /// to capacity, backing table) so point- and bulk-built tables have the
  /// same occupancy shape.  Keeps the block's sorted invariant.
  bool insert(uint64_t key) {
    hashed h = hash_key(key);
    uint64_t target;
    if (fills_[h.b1] < shortcut_threshold_)
      target = h.b1;
    else if (fills_[h.b2] < NumSlots)
      target = h.b2;
    else if (fills_[h.b1] < NumSlots)
      target = h.b1;
    else {
      uint64_t c1 = util::murmur64((h.b1 << 16) | h.fp);
      uint64_t c2 = util::mix64_b((h.b1 << 16) | h.fp);
      GF_COUNT(backing_inserts, 1);
      if (!cfg_.enable_backing || !backing_.insert(c1, c2, h.fp))
        return false;
      ++live_;
      return true;
    }
    uint16_t* s = &slots_[target * NumSlots];
    unsigned fill = fills_[target];
    unsigned pos = 0;
    while (pos < fill && s[pos] < h.fp) ++pos;
    for (unsigned i = fill; i > pos; --i) s[i] = s[i - 1];
    s[pos] = h.fp;
    fills_[target] = static_cast<uint8_t>(fill + 1);
    ++live_;
    return true;
  }

  /// Delete one stored copy of the key (block compaction keeps the sorted
  /// invariant; no tombstones).
  bool erase(uint64_t key) {
    hashed h = hash_key(key);
    for (uint64_t b : {h.b1, h.b2}) {
      uint16_t* s = &slots_[b * NumSlots];
      unsigned fill = fills_[b];
      unsigned pos = 0;
      while (pos < fill && s[pos] < h.fp) ++pos;
      if (pos < fill && s[pos] == h.fp) {
        for (unsigned i = pos; i + 1 < fill; ++i) s[i] = s[i + 1];
        s[fill - 1] = kBulkEmpty;
        fills_[b] = static_cast<uint8_t>(fill - 1);
        --live_;
        return true;
      }
    }
    if (cfg_.enable_backing) {
      uint64_t c1 = util::murmur64((h.b1 << 16) | h.fp);
      uint64_t c2 = util::mix64_b((h.b1 << 16) | h.fp);
      if (backing_.erase(c1, c2, h.fp, 0)) {
        --live_;
        return true;
      }
    }
    return false;
  }

  /// Membership for one key (binary search in up to two blocks, then the
  /// backing table).  Thread-safe against other queries, not against a
  /// concurrent insert_bulk (bulk filters are host-phased, paper Table 1).
  bool contains(uint64_t key) const {
    hashed h = hash_key(key);
    GF_COUNT(cache_lines_touched, 2);
    if (block_search(h.b1, h.fp)) return true;
    GF_COUNT(cache_lines_touched, 2);
    if (block_search(h.b2, h.fp)) return true;
    if (!cfg_.enable_backing) return false;
    uint64_t c1 = util::murmur64((h.b1 << 16) | h.fp);
    uint64_t c2 = util::mix64_b((h.b1 << 16) | h.fp);
    return backing_.contains(c1, c2, h.fp, 0);
  }

  uint64_t count_contained(std::span<const uint64_t> keys) const {
    return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
      uint64_t found = 0;
      for (uint64_t i = begin; i < end; ++i) found += contains(keys[i]);
      return found;
    });
  }

  /// Bulk delete: remove one stored copy per batch instance.  Returns the
  /// number of items actually removed.  Blocks are compacted (no
  /// tombstones), preserving sortedness for binary search.
  uint64_t erase_bulk(std::span<const uint64_t> keys) {
    const uint64_t n = keys.size();
    if (n == 0) return 0;
    std::vector<uint64_t> sort_keys(n);
    std::vector<uint64_t> alt(n);
    gpu::launch_threads(n, [&](uint64_t i) {
      hashed h = hash_key(keys[i]);
      sort_keys[i] = (h.b1 << 16) | h.fp;
      alt[i] = h.b2;
    });
    int key_bits = util::log2_ceil(num_blocks_) + 16;
    par::radix_sort_by_key(sort_keys, alt, key_bits);

    std::vector<uint64_t> missed_keys;  // (b2 << 16 | fp)
    std::vector<uint64_t> missed_unused;
    phase_erase(sort_keys, alt, &missed_keys, &missed_unused,
                /*payload_is_next_target=*/true);

    std::vector<uint64_t> final_missed;
    std::vector<uint64_t> final_unused;
    if (!missed_keys.empty()) {
      par::radix_sort_by_key(missed_keys, missed_unused, key_bits);
      // Misses after the secondary block retry the backing table, whose
      // probes are derived from b1 (carried as the payload).
      phase_erase(missed_keys, missed_unused, &final_missed, &final_unused,
                  /*payload_is_next_target=*/true);
    }

    uint64_t failed = 0;
    if (!final_missed.empty()) {
      std::atomic<uint64_t> fails{0};
      gpu::launch_threads(final_missed.size(), [&](uint64_t i) {
        uint16_t fp = static_cast<uint16_t>(final_missed[i] & 0xFFFF);
        uint64_t b1 = final_missed[i] >> 16;
        uint64_t c1 = util::murmur64((b1 << 16) | fp);
        uint64_t c2 = util::mix64_b((b1 << 16) | fp);
        if (!backing_.erase(c1, c2, fp, 0))
          // relaxed: worker-private tally; the launch join publishes it to the reader.
          fails.fetch_add(1, std::memory_order_relaxed);
      });
      failed = fails.load();
    }
    uint64_t removed = n - failed;
    live_ -= removed < live_ ? removed : live_;
    return removed;
  }

  // -- Introspection --------------------------------------------------------

  uint64_t capacity() const { return num_blocks_ * NumSlots; }
  uint64_t size() const { return live_; }
  double load_factor() const {
    return static_cast<double>(live_) / static_cast<double>(capacity());
  }
  uint64_t backing_size() const { return backing_.size(); }
  size_t memory_bytes() const {
    return slots_.size() * sizeof(uint16_t) + fills_.size() +
           backing_.memory_bytes();
  }
  double bits_per_item(uint64_t items) const {
    return items ? static_cast<double>(memory_bytes()) * 8.0 /
                       static_cast<double>(items)
                 : 0.0;
  }

  // -- Enumeration ------------------------------------------------------------

  /// Visit every stored fingerprint as (block index, fingerprint); the
  /// backing table's entries report block index == num_blocks().
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (uint64_t b = 0; b < num_blocks_; ++b) {
      const uint16_t* s = &slots_[b * NumSlots];
      for (unsigned i = 0; i < fills_[b]; ++i) fn(b, s[i]);
    }
    backing_.for_each_slot([&](uint16_t v) { fn(num_blocks_, v); });
  }

  uint64_t num_blocks() const { return num_blocks_; }

  // -- Serialization ---------------------------------------------------------

  /// Write the filter to a stream (host-phased: no concurrent writers).
  void save(std::ostream& out) const {
    util::write_header(out, kFileMagic, kFileVersion);
    util::write_pod<uint32_t>(out, FpBits);
    util::write_pod<uint32_t>(out, NumSlots);
    // Field-wise, not write_pod(cfg_): raw struct writes would include
    // indeterminate padding bytes, breaking bit-exact round trips.
    util::write_pod(out, cfg_.backing_fraction);
    util::write_pod<uint8_t>(out, cfg_.enable_backing ? 1 : 0);
    util::write_pod<uint8_t>(out, cfg_.enable_shortcut ? 1 : 0);
    util::write_pod(out, cfg_.shortcut_cutoff);
    util::write_pod<uint32_t>(out, cfg_.cg_size);
    util::write_pod(out, num_blocks_);
    util::write_pod(out, shortcut_threshold_);
    util::write_pod(out, live_);
    util::write_vec(out, slots_);
    util::write_vec(out, fills_);
    backing_.save(out);
  }

  /// Read a filter previously written by save().
  static bulk_tcf load(std::istream& in) {
    util::expect_header(in, kFileMagic, kFileVersion);
    if (util::read_pod<uint32_t>(in) != FpBits ||
        util::read_pod<uint32_t>(in) != NumSlots)
      throw std::runtime_error("gf: bulk TCF variant mismatch");
    bulk_tcf f(1);
    f.cfg_.backing_fraction = util::read_pod<double>(in);
    f.cfg_.enable_backing = util::read_pod<uint8_t>(in) != 0;
    f.cfg_.enable_shortcut = util::read_pod<uint8_t>(in) != 0;
    f.cfg_.shortcut_cutoff = util::read_pod<double>(in);
    f.cfg_.cg_size = util::read_pod<uint32_t>(in);
    f.num_blocks_ = util::read_pod<uint64_t>(in);
    f.shortcut_threshold_ = util::read_pod<unsigned>(in);
    f.live_ = util::read_pod<uint64_t>(in);
    f.slots_ = util::read_vec<uint16_t>(in);
    f.fills_ = util::read_vec<uint8_t>(in);
    f.backing_.load(in);
    if (f.slots_.size() != f.num_blocks_ * NumSlots ||
        f.fills_.size() != f.num_blocks_)
      throw std::runtime_error("gf: bulk TCF geometry mismatch");
    return f;
  }

  /// Debug invariant: every block's live prefix is sorted and its suffix
  /// is empty sentinels.  Used by property tests.
  bool validate() const {
    for (uint64_t b = 0; b < num_blocks_; ++b) {
      const uint16_t* s = &slots_[b * NumSlots];
      unsigned fill = fills_[b];
      if (fill > NumSlots) return false;
      for (unsigned i = 0; i + 1 < fill; ++i)
        if (s[i] > s[i + 1]) return false;
      for (unsigned i = 0; i < fill; ++i)
        if (s[i] == kBulkEmpty) return false;
      for (unsigned i = fill; i < NumSlots; ++i)
        if (s[i] != kBulkEmpty) return false;
    }
    return true;
  }

 private:
  struct hashed {
    uint64_t b1, b2;
    uint16_t fp;
  };

  hashed hash_key(uint64_t key) const {
    uint64_t h1 = util::murmur64(key);
    uint64_t h2 = util::mix64_b(key);
    uint16_t fp = static_cast<uint16_t>(h1 ^ (h1 >> 32) ^ (h2 << 13));
    if (fp == kBulkEmpty) fp = 0xFFFE;
    return {util::fast_range(h1, num_blocks_),
            util::fast_range(h2, num_blocks_), fp};
  }

  bool block_search(uint64_t block, uint16_t fp) const {
    const uint16_t* s = &slots_[block * NumSlots];
    unsigned lo = 0, hi = fills_[block];
    while (lo < hi) {
      unsigned mid = (lo + hi) / 2;
      if (s[mid] < fp)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo < fills_[block] && s[lo] == fp;
  }

  /// The blocks a sorted (block << 16 | fp) phase batch touches, with each
  /// block's span of the batch.
  static std::vector<par::touched_run> touched_blocks(
      std::span<const uint64_t> items) {
    return par::touched_runs(items, [](uint64_t v) { return v >> 16; });
  }

  /// One insert phase: `items` are (target block << 16 | fp), sorted.  For
  /// each touched target block, zip-merge the stored list with the
  /// incoming list up to `fill_limit` occupied slots; overflow items are
  /// emitted as (next target << 16 | fp) into `out_keys`/`out_payload`.
  /// When `payload_is_next_target` the payload holds the block index the
  /// overflow should try next; otherwise overflow keeps the current
  /// encoding (used by phase C, whose overflow goes to the backing table).
  void phase_fill(std::span<const uint64_t> items,
                  std::span<const uint64_t> payload, unsigned fill_limit,
                  std::vector<uint64_t>* out_keys,
                  std::vector<uint64_t>* out_payload,
                  bool payload_is_next_target = true) {
    const uint64_t n = items.size();
    const auto runs = touched_blocks(items);
    // Overflow is collected through a shared cursor into preallocated
    // arrays (mirrors the paper's pointer-marked buffers, §5.3).
    std::vector<uint64_t> ov_keys(n);
    std::vector<uint64_t> ov_payload(n);
    std::atomic<uint64_t> ov_cursor{0};

    gpu::launch_threads(
        runs.size(),
        [&](uint64_t r) {
          const auto [b, begin, end] = runs[r];
          uint16_t* stored = &slots_[b * NumSlots];
          unsigned fill = fills_[b];
          unsigned budget = fill_limit > fill ? fill_limit - fill : 0;
          uint64_t take = end - begin < budget ? end - begin : budget;
          uint64_t overflow_at = begin + take;

          if (take > 0) {
            // Zip merge in "shared memory", one coalesced write back.
            gpu::scratch shmem;
            uint16_t* merged = shmem.alloc<uint16_t>(fill + take);
            uint64_t i = 0, j = begin, o = 0;
            while (i < fill && j < overflow_at) {
              uint16_t incoming = static_cast<uint16_t>(items[j] & 0xFFFF);
              if (stored[i] <= incoming)
                merged[o++] = stored[i++];
              else {
                merged[o++] = incoming;
                ++j;
              }
            }
            while (i < fill) merged[o++] = stored[i++];
            while (j < overflow_at)
              merged[o++] = static_cast<uint16_t>(items[j++] & 0xFFFF);
            for (uint64_t k = 0; k < o; ++k) stored[k] = merged[k];
            fills_[b] = static_cast<uint8_t>(o);
            GF_COUNT(cache_lines_touched, (o * 2 + 127) / 128 + 1);
          }
          if (overflow_at < end) {
            uint64_t cnt = end - overflow_at;
            // relaxed: cursor hands out disjoint indices; data is read after the join.
            uint64_t at = ov_cursor.fetch_add(cnt, std::memory_order_relaxed);
            for (uint64_t k = 0; k < cnt; ++k) {
              uint64_t idx = overflow_at + k;
              uint16_t fp = static_cast<uint16_t>(items[idx] & 0xFFFF);
              uint64_t next = payload_is_next_target ? payload[idx]
                                                     : (items[idx] >> 16);
              ov_keys[at + k] = (next << 16) | fp;
              ov_payload[at + k] = items[idx] >> 16;  // provenance (b_prev)
            }
          }
        },
        /*grain=*/64);

    uint64_t total = ov_cursor.load();
    ov_keys.resize(total);
    ov_payload.resize(total);
    *out_keys = std::move(ov_keys);
    *out_payload = std::move(ov_payload);
  }

  /// One erase phase: remove one stored copy per incoming instance;
  /// misses are emitted for the next phase, re-targeted via payload.
  void phase_erase(std::span<const uint64_t> items,
                   std::span<const uint64_t> payload,
                   std::vector<uint64_t>* out_keys,
                   std::vector<uint64_t>* out_payload,
                   bool payload_is_next_target = false) {
    const uint64_t n = items.size();
    const auto runs = touched_blocks(items);
    std::vector<uint64_t> ms_keys(n);
    std::vector<uint64_t> ms_payload(n);
    std::atomic<uint64_t> ms_cursor{0};

    gpu::launch_threads(
        runs.size(),
        [&](uint64_t r) {
          const auto [b, begin, end] = runs[r];
          uint16_t* stored = &slots_[b * NumSlots];
          unsigned fill = fills_[b];

          gpu::scratch shmem;
          uint16_t* kept = shmem.alloc<uint16_t>(fill);
          uint64_t i = 0, o = 0, j = begin;
          uint64_t miss_local = 0;
          uint64_t* misses = shmem.alloc<uint64_t>(end - begin);
          // Merge-subtract: both lists sorted; each incoming fp cancels at
          // most one stored copy.
          while (i < fill && j < end) {
            uint16_t incoming = static_cast<uint16_t>(items[j] & 0xFFFF);
            if (stored[i] < incoming)
              kept[o++] = stored[i++];
            else if (stored[i] == incoming) {
              ++i;  // cancelled
              ++j;
            } else
              misses[miss_local++] = j++;
          }
          while (j < end) misses[miss_local++] = j++;
          while (i < fill) kept[o++] = stored[i++];
          for (uint64_t k = 0; k < o; ++k) stored[k] = kept[k];
          for (uint64_t k = o; k < fill; ++k) stored[k] = kBulkEmpty;
          fills_[b] = static_cast<uint8_t>(o);

          if (miss_local > 0) {
            // relaxed: cursor hands out disjoint indices; data is read after the join.
            uint64_t at =
                ms_cursor.fetch_add(miss_local, std::memory_order_relaxed);
            for (uint64_t k = 0; k < miss_local; ++k) {
              uint64_t idx = misses[k];
              uint16_t fp = static_cast<uint16_t>(items[idx] & 0xFFFF);
              uint64_t next = payload_is_next_target ? payload[idx]
                                                     : (items[idx] >> 16);
              ms_keys[at + k] = (next << 16) | fp;
              ms_payload[at + k] = items[idx] >> 16;
            }
          }
        },
        /*grain=*/64);

    uint64_t total = ms_cursor.load();
    ms_keys.resize(total);
    ms_payload.resize(total);
    *out_keys = std::move(ms_keys);
    *out_payload = std::move(ms_payload);
  }

  static constexpr uint64_t kFileMagic = 0x4746'4254'4631ull;  // "GFBTF1"
  // v2: tcf_config serialized field-wise (padding-free) instead of as a
  // raw struct; v1 files fail with a clean version error.
  static constexpr uint32_t kFileVersion = 2;

  tcf_config cfg_;
  uint64_t num_blocks_;
  std::vector<uint16_t> slots_;
  std::vector<uint8_t> fills_;
  backing_table backing_;
  unsigned shortcut_threshold_;
  uint64_t live_ = 0;
};

}  // namespace gf::tcf
