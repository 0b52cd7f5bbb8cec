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
//    binary search (log-time) instead of a scan.  A batch of queries
//    (contains_each) runs through a hash-ahead pipeline: it hashes each
//    key kPrefetchDistance keys ahead and prefetches both candidate
//    blocks, so a batch keeps that many keys' fetches in flight, as the
//    point TCF's batch reads do.  A 256 B block spans several cache
//    lines; the search is cheap next to fetching them.
//  * Inserts are phased host-side bulk operations: a batch is sorted by
//    primary block, and each block merges three sorted lists — the items
//    already stored, the items shortcutted into it, and the items POTC-
//    assigned to it.  The paper's kernel zip-merges a block in shared
//    memory and writes it back coalesced; a CPU core already holds the
//    block's 256 B in L1 once it is fetched, so here each phase merges in
//    place (binary search plus one memmove per incoming fingerprint, see
//    "Block edits") and prefetches the blocks of the runs ahead of the one
//    it merges — the CPU's way to keep the fetches in flight that a GPU
//    hides behind its other warps.  Equal fingerprints are equal bytes,
//    so the blocks come out as the zip merge leaves them.
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

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
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
#include "util/prefetch.h"

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
    } else {
      failed = gpu::launch_sum(
          residue_keys.size(), [&](uint64_t begin, uint64_t end) {
            uint64_t fails = 0;
            for (uint64_t i = begin; i < end; ++i) {
              // Reconstruct probe digests from (block, fp): the backing
              // table only needs a well-spread position sequence.
              const uint64_t item = residue_keys[i];
              GF_COUNT(backing_inserts, 1);
              fails += !backing_.insert(util::murmur64(item),
                                        util::mix64_b(item),
                                        static_cast<uint16_t>(item & 0xFFFF));
            }
            return fails;
          });
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
    const unsigned fill = fills_[target];
    merge_in(block(target), fill, 1, [&](uint64_t) { return h.fp; });
    fills_[target] = static_cast<uint8_t>(fill + 1);
    ++live_;
    return true;
  }

  /// Delete one stored copy of the key (block compaction keeps the sorted
  /// invariant; no tombstones).
  bool erase(uint64_t key) {
    hashed h = hash_key(key);
    for (uint64_t b : {h.b1, h.b2}) {
      const unsigned fill = fills_[b];
      const unsigned kept = subtract(
          block(b), fill, 1, [&](uint64_t) { return h.fp; }, [](uint64_t) {});
      if (kept != fill) {
        fills_[b] = static_cast<uint8_t>(kept);
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
  bool contains(uint64_t key) const { return probe(hash_key(key)); }

  /// Keys hashed ahead of the one contains_each probes, and runs ahead of
  /// the one an insert or erase phase merges, whose blocks are prefetched.
  /// A key or a run costs mostly the wait for its block's lines; the
  /// distance keeps that many fetches in flight.
  static constexpr uint64_t kPrefetchDistance = 8;

  /// Batched membership: calls sink(i, contains(keys[i])) for every i, in
  /// order, on the calling thread (no pool launch).  The hash-ahead
  /// pipeline: each key is hashed kPrefetchDistance keys ahead of its probe
  /// and the fill bytes and lines of both candidate blocks are prefetched.
  /// Hashing reads only the table geometry and a prefetch changes nothing,
  /// so the answer is contains()'s: the same probe runs on the same hash.
  /// Host-phased like contains().
  template <class Sink>
  void contains_each(std::span<const uint64_t> keys, Sink&& sink) const {
    constexpr uint64_t kMask = kPrefetchDistance - 1;
    static_assert((kPrefetchDistance & kMask) == 0);
    const uint64_t n = keys.size();
    hashed ring[kPrefetchDistance]{};
    for (uint64_t i = 0; i < n && i < kPrefetchDistance; ++i)
      ring[i] = prefetch(hash_key(keys[i]));
    for (uint64_t i = 0; i < n; ++i) {
      const hashed h = ring[i & kMask];
      if (n - i > kPrefetchDistance)
        ring[i & kMask] = prefetch(hash_key(keys[i + kPrefetchDistance]));
      sink(i, probe(h));
    }
  }

  uint64_t count_contained(std::span<const uint64_t> keys) const {
    return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
      uint64_t found = 0;
      contains_each(keys.subspan(begin, end - begin),
                    [&](size_t, bool hit) { found += hit; });
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

    const uint64_t failed = gpu::launch_sum(
        final_missed.size(), [&](uint64_t begin, uint64_t end) {
          uint64_t fails = 0;
          for (uint64_t i = begin; i < end; ++i) {
            const uint64_t item = final_missed[i];  // (b1 << 16 | fp)
            fails += !backing_.erase(util::murmur64(item),
                                     util::mix64_b(item),
                                     static_cast<uint16_t>(item & 0xFFFF), 0);
          }
          return fails;
        });
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

  /// contains() on an already-hashed key.  The backing table's digests
  /// are derived here, for the keys that miss both blocks only: the table
  /// is a hundredth of the main one and stays cached, so hashing them
  /// ahead for every key, to prefetch its first slot, cost more than the
  /// fetch it hid.
  bool probe(const hashed& h) const {
    GF_COUNT(cache_lines_touched, 2);
    if (block_search(h.b1, h.fp)) return true;
    GF_COUNT(cache_lines_touched, 2);
    if (block_search(h.b2, h.fp)) return true;
    if (!cfg_.enable_backing) return false;
    uint64_t c1 = util::murmur64((h.b1 << 16) | h.fp);
    uint64_t c2 = util::mix64_b((h.b1 << 16) | h.fp);
    return backing_.contains(c1, c2, h.fp, 0);
  }

  /// Start the line fetches probe(h) will need; returns h.
  const hashed& prefetch(const hashed& h) const {
    prefetch_block(h.b1);
    prefetch_block(h.b2);
    return h;
  }

  /// Start the fetches of block b's fill byte and of its lines.  A block
  /// is not line-aligned, so its last byte is prefetched too.
  void prefetch_block(uint64_t b) const {
    util::prefetch_line(&fills_[b]);
    const char* p = reinterpret_cast<const char*>(block(b));
    constexpr unsigned kBytes = NumSlots * sizeof(uint16_t);
    for (unsigned line = 0; line < kBytes; line += 64)
      util::prefetch_line(p + line);
    util::prefetch_line(p + kBytes - 1);
  }

  uint16_t* block(uint64_t b) { return &slots_[b * NumSlots]; }
  const uint16_t* block(uint64_t b) const { return &slots_[b * NumSlots]; }

  bool block_search(uint64_t b, uint16_t fp) const {
    const uint16_t* s = block(b);
    const unsigned fill = fills_[b];
    const unsigned pos = count_below(s, fill, fp);
    return pos < fill && s[pos] == fp;
  }

  // -- Block edits -------------------------------------------------------
  //
  // Every write to a block goes through merge_in() or subtract(), point
  // ops and bulk phases alike: in place, by binary search plus one memmove
  // of the stored tail per incoming fingerprint.  A scratch copy of the
  // block (the paper's shared-memory zip merge, §4.2) would cost a copy
  // each way for 256 B that are already in L1.

  /// How many of the sorted s[0, fill) are below fp — with `or_equal`, at
  /// or below it: the lower (upper) bound, by branch-free binary search.
  template <bool or_equal = false>
  static unsigned count_below(const uint16_t* s, unsigned fill,
                              uint16_t fp) {
    if (fill == 0) return 0;
    const uint16_t* base = s;
    unsigned len = fill;
    while (len > 1) {
      const unsigned half = len / 2;
      base = (or_equal ? base[half] <= fp : base[half] < fp) ? base + half
                                                             : base;
      len -= half;
    }
    return static_cast<unsigned>(base - s) +
           (or_equal ? *base <= fp : *base < fp);
  }

  /// Merge `take` ascending fingerprints fp_at(0..take) into the sorted
  /// block s[0, fill), which has room for them: from the largest down,
  /// each lands after its equals and the stored tail above it moves once.
  template <class FpAt>
  static void merge_in(uint16_t* s, unsigned fill, uint64_t take,
                       FpAt&& fp_at) {
    unsigned hi = fill;  // s[0, hi) has not moved yet
    for (uint64_t k = take; k-- > 0;) {
      const uint16_t fp = fp_at(k);
      const unsigned pos = count_below<true>(s, hi, fp);
      std::memmove(s + pos + k + 1, s + pos, (hi - pos) * sizeof(uint16_t));
      s[pos + k] = fp;
      hi = pos;
    }
  }

  /// Remove one stored copy of each of `count` ascending fingerprints
  /// fp_at(0..count) from the sorted block s[0, fill), compacting in place
  /// (no tombstones) and emptying the freed tail; miss(k) is called, in
  /// order, for each one with no copy left.  Returns the new fill.
  template <class FpAt, class Miss>
  static unsigned subtract(uint16_t* s, unsigned fill, uint64_t count,
                           FpAt&& fp_at, Miss&& miss) {
    unsigned read = 0, write = 0;  // s[read, fill) is unvisited
    for (uint64_t k = 0; k < count; ++k) {
      const uint16_t fp = fp_at(k);
      const unsigned pos = read + count_below(s + read, fill - read, fp);
      if (write != read)
        std::memmove(s + write, s + read, (pos - read) * sizeof(uint16_t));
      write += pos - read;
      read = pos;
      if (read < fill && s[read] == fp)
        ++read;  // cancelled
      else
        miss(k);
    }
    if (write == read) return fill;
    std::memmove(s + write, s + read, (fill - read) * sizeof(uint16_t));
    write += fill - read;
    std::fill(s + write, s + fill, kBulkEmpty);
    return write;
  }

  /// The blocks a sorted (block << 16 | fp) phase batch touches, with each
  /// block's span of the batch.
  static std::vector<par::touched_run> touched_blocks(
      std::span<const uint64_t> items) {
    return par::touched_runs(items, [](uint64_t v) { return v >> 16; });
  }

  /// Runs per pool task in a phase launch; a phase of at most this many
  /// runs stays on the caller.  A run costs about 60 ns and a pool launch
  /// about 15 us (perfbench's gpu.pool.launch_ns), so a smaller phase
  /// would pay more to wake the pool than to merge its blocks.
  static constexpr uint64_t kRunGrain = 256;

  /// Start the fetches of run r's block, if there is a run r.  A task
  /// (kRunGrain runs from a multiple of kRunGrain) first starts its
  /// opening kPrefetchDistance - 1 runs' fetches.  A wire frame touches
  /// about one block per key, so a run's time is mostly the wait for its
  /// block's lines.
  void prefetch_ahead(const std::vector<par::touched_run>& runs,
                      uint64_t r) const {
    if (r % kRunGrain == 0)
      for (uint64_t j = 1; j < kPrefetchDistance; ++j)
        prefetch_run(runs, r + j);
    prefetch_run(runs, r + kPrefetchDistance);
  }

  void prefetch_run(const std::vector<par::touched_run>& runs,
                    uint64_t r) const {
    if (r < runs.size()) prefetch_block(runs[r].region);
  }

  /// One insert phase: `items` are (target block << 16 | fp), sorted.  For
  /// each touched target block, merge the incoming list into the stored
  /// one in place, up to `fill_limit` occupied slots; overflow items are
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
          prefetch_ahead(runs, r);
          const auto [b, begin, end] = runs[r];
          const unsigned fill = fills_[b];
          const unsigned budget = fill_limit > fill ? fill_limit - fill : 0;
          const uint64_t take = end - begin < budget ? end - begin : budget;
          const uint64_t overflow_at = begin + take;

          if (take > 0) {
            merge_in(block(b), fill, take, [&](uint64_t k) {
              return static_cast<uint16_t>(items[begin + k] & 0xFFFF);
            });
            fills_[b] = static_cast<uint8_t>(fill + take);
            GF_COUNT(cache_lines_touched, ((fill + take) * 2 + 127) / 128 + 1);
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
        kRunGrain);

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
          prefetch_ahead(runs, r);
          const auto [b, begin, end] = runs[r];
          gpu::scratch shmem;
          uint64_t* misses = shmem.alloc<uint64_t>(end - begin);
          uint64_t miss_local = 0;
          // Merge-subtract: both lists sorted; each incoming fp cancels at
          // most one stored copy.
          fills_[b] = static_cast<uint8_t>(subtract(
              block(b), fills_[b], end - begin,
              [&](uint64_t k) {
                return static_cast<uint16_t>(items[begin + k] & 0xFFFF);
              },
              [&](uint64_t k) { misses[miss_local++] = begin + k; }));

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
        kRunGrain);

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
