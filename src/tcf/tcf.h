// The point TCF — the paper's two-choice filter with device-side
// (per-item, thread-safe) operations.
//
// Design (paper §4):
//  * The table is an array of blocks sized to fit a GPU cache line; every
//    key maps to two blocks via power-of-two-choice hashing and to an
//    f-bit fingerprint.
//  * Inserts query the fill of both candidate blocks and insert into the
//    less full one using cooperative-group ballots and an atomicCAS claim
//    (Algorithm 1 / Figure 1).
//  * The shortcut optimization (§4.1) skips the secondary-block fill probe
//    when the primary block is under a 0.75 fill ratio, saving one cache
//    line load per insert.
//  * Items that fail both blocks go to a small double-hashing backing
//    table (1/100th of the main table), lifting the achievable load
//    factor from ~79.6% to 90% (§6.1).
//  * Deletes replace the fingerprint with a tombstone in one atomicCAS —
//    this is why TCF deletions are an order of magnitude faster than the
//    shifting-based GQF (§6.4).
//  * Value association (ValBits > 0): the slot stores (fingerprint <<
//    ValBits) | value, the "Key - Val" composite of Algorithm 1 line 8.
//  * A query probes a whole block at once, the CPU analogue of the
//    cooperative group reading its cache line in one transaction (§6.3):
//    on the aligned layouts that fill whole 16-byte vectors (16-16, 16-32
//    and the key-value 12+4-32 among the named variants) block_find and
//    block_fill are one SSE2 compare over relaxed 64-bit word loads
//    (tcf_block.h, "Whole-block scan").  The packed-12 layout and blocks
//    whose size is not a multiple of 16 bytes (8-8) keep the per-slot
//    loop.  Both give the same answers, and inserts keep Algorithm 1's
//    per-lane ballot order, so placement does not change.
//  * The block array is a util::zeroed_array: from 2 MiB up it is its own
//    2 MiB-aligned mapping advised for transparent huge pages and left
//    untouched at construction, because the empty slot is all-zero bytes
//    (kEmpty) and fresh pages already read as zero.  Every insert or query
//    fetches one or two random blocks across the whole table; in 4 KiB
//    pages a DRAM-sized table makes nearly each such fetch a TLB miss as
//    well, and in 2 MiB pages it does not.  The page faults move from
//    construction into the first writes.  The bulk TCF (bulk_tcf.h) keeps
//    a std::vector: its empty slot is 0xFFFF, so its table has to be
//    written at construction anyway.
//  * The live-item count is a gauge: the point insert() and erase() bump
//    it per key, a batch call once per worker range with the placements
//    its range made, so parallel batch writes share no per-key write.
//
// Template parameters: FpBits ∈ {8, 12, 16} fingerprint bits, NumSlots
// slots per block, ValBits associated-value bits (FpBits + ValBits must be
// 8, 12, or 16; the 12-bit packed layout supports ValBits == 0 only).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "gpu/coop_groups.h"
#include "gpu/launch.h"
#include "par/radix_sort.h"
#include "par/reduce_by_key.h"
#include "tcf/backing_table.h"
#include "tcf/tcf_block.h"
#include "tcf/tcf_params.h"
#include "util/bits.h"
#include "util/counters.h"
#include "util/hash.h"
#include "util/prefetch.h"
#include "util/zeroed_array.h"

namespace gf::tcf {

template <unsigned FpBits, unsigned NumSlots, unsigned ValBits = 0>
class tcf {
 public:
  static constexpr unsigned kSlotBits = FpBits + ValBits;
  static_assert(kSlotBits == 8 || kSlotBits == 12 || kSlotBits == 16,
                "slot composites must be 8, 12, or 16 bits");
  static_assert(kSlotBits != 12 || ValBits == 0,
                "the packed 12-bit layout stores plain fingerprints");

  using block_type = tcf_block<kSlotBits, NumSlots>;
  static constexpr unsigned kSlotsPerBlock = NumSlots;
  static constexpr unsigned kFpBits = FpBits;
  static constexpr unsigned kValBits = ValBits;

  /// Expected false-positive rate: 2B / 2^f (paper §4.1).
  static constexpr double theoretical_fp_rate() {
    return 2.0 * NumSlots / static_cast<double>(1u << FpBits);
  }

  /// A filter with at least `min_slots` main-table slots (rounded up to a
  /// whole number of blocks).
  explicit tcf(uint64_t min_slots, tcf_config cfg = {})
      : cfg_(cfg),
        blocks_(std::max<uint64_t>((min_slots + NumSlots - 1) / NumSlots, 1)),
        backing_(cfg.enable_backing
                     ? static_cast<uint64_t>(
                           static_cast<double>(blocks_.size()) * NumSlots *
                           cfg.backing_fraction)
                     : backing_table::kMaxProbes),
        shortcut_threshold_(static_cast<unsigned>(
            cfg.shortcut_cutoff * static_cast<double>(NumSlots))) {}

  tcf(tcf&& other) noexcept
      : cfg_(other.cfg_),
        blocks_(std::move(other.blocks_)),
        backing_(std::move(other.backing_)),
        shortcut_threshold_(other.shortcut_threshold_),
        // relaxed: move/ctor runs single-threaded by contract.
        live_(other.live_.load(std::memory_order_relaxed)) {}
  tcf& operator=(tcf&& other) noexcept {
    cfg_ = other.cfg_;
    blocks_ = std::move(other.blocks_);
    backing_ = std::move(other.backing_);
    shortcut_threshold_ = other.shortcut_threshold_;
    // relaxed: move/ctor runs single-threaded by contract.
    live_.store(other.live_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  // -- Device-side point API (thread-safe) --------------------------------

  /// Insert a key; returns false only when both blocks and the backing
  /// table are full (the filter is beyond its stable load factor).
  bool insert(uint64_t key, uint16_t value = 0) {
    if (!place(hash_key(key), value)) return false;
    // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
    live_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Membership query: probes the two candidate blocks, then (for negative
  /// results) the backing table (§6.1's negative-query overhead).
  bool contains(uint64_t key) const { return probe(hash_key(key)); }

  /// Keys hashed ahead of the one being operated on by every batch call.
  static constexpr size_t kPrefetchDistance = 16;

  /// Batched membership: calls sink(i, contains(keys[i])) for every i, in
  /// order, on the calling thread (no pool launch).  It runs the probe
  /// through pipelined(), the hash-ahead prefetch pipeline the batch
  /// inserts and erases share; the answer is contains()'s — the same
  /// probe runs on the same hash.
  template <class Sink>
  void contains_each(std::span<const uint64_t> keys, Sink&& sink) const {
    pipelined(0, keys.size(), [&](uint64_t i) { return keys[i]; },
              [&](uint64_t i, const hashed& h) { sink(i, probe(h)); });
  }

  /// Value lookup (ValBits > 0): value stored with the fingerprint, or
  /// nullopt if the key is absent.
  std::optional<uint16_t> find_value(uint64_t key) const
    requires(ValBits > 0)
  {
    const hashed h = hash_key(key);
    for (uint64_t b : {h.b1, h.b2}) {
      int slot = block_find<ValBits>(blocks_[b], h.fp);
      if (slot >= 0)
        return static_cast<uint16_t>(blocks_[b].load(slot) & val_mask());
    }
    return backing_.find_value(h.h1, h.h2, h.fp, ValBits);
  }

  /// Delete one instance of the key (tombstone CAS; §6.4).
  bool erase(uint64_t key) {
    if (!tombstone(hash_key(key))) return false;
    // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
    live_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  // -- Host-side bulk helpers (parallel over the device) -------------------
  //
  // Each batch call is a gpu::launch_sum: every pool worker takes one
  // contiguous range of the batch, runs it through pipelined() (or the
  // serial contains_each) and adds its tally once, to the return value
  // and (for writes) to the live-item gauge.  A worker keeps up to
  // kPrefetchDistance keys' block fetches in flight — the CPU analogue of
  // the thousands of GPU threads whose outstanding loads make the TCF
  // fast (§4).  Within a range keys are applied in batch order, so on a
  // serial pool (width 1, or a launch nested in another) a batch call
  // places every key exactly where the point loop would.

  /// Insert a batch; returns the number successfully inserted
  /// (== keys.size() below the stable load).
  uint64_t insert_bulk(std::span<const uint64_t> keys) {
    return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
      uint64_t ok = 0;
      pipelined(begin, end, [&](uint64_t i) { return keys[i]; },
                [&](uint64_t, const hashed& h) { ok += place(h); });
      // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
      live_.fetch_add(ok, std::memory_order_relaxed);
      return ok;
    });
  }

  uint64_t count_contained(std::span<const uint64_t> keys) const {
    return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
      uint64_t found = 0;
      contains_each(keys.subspan(begin, end - begin),
                    [&](size_t, bool hit) { found += hit; });
      return found;
    });
  }

  uint64_t erase_bulk(std::span<const uint64_t> keys) {
    return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
      uint64_t ok = 0;
      pipelined(begin, end, [&](uint64_t i) { return keys[i]; },
                [&](uint64_t, const hashed& h) { ok += tombstone(h); });
      // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
      live_.fetch_sub(ok, std::memory_order_relaxed);
      return ok;
    });
  }

  /// Sorted-slab bulk insert: order the batch by (primary block,
  /// fingerprint) — the §5.3 sort-then-insert discipline applied to the
  /// point TCF — so consecutive inserts probe adjacent cache lines instead
  /// of striding the whole table, then drive the normal two-choice path.
  /// Duplicate keys land adjacent in the sorted order (the sort is stable
  /// and equal keys share a composite), so the batch is §5.4-deduped for
  /// free: each repeated key is inserted once and its copies are answered
  /// by that one stored fingerprint — this is what keeps a hot-key flood
  /// from devouring the hot key's two candidate blocks.  Returns the
  /// number of batch instances whose membership is now answered.  Static
  /// worker ranges keep each worker on a contiguous slab.
  uint64_t insert_bulk_sorted(std::span<const uint64_t> keys) {
    const uint64_t n = keys.size();
    // Small batches skip the parallel slab machinery but must NOT skip the
    // §5.4 dedup: 200 copies of one hot key would otherwise flood its two
    // candidate blocks and report spurious refusals even though the one
    // distinct key trivially fits.  A serial sort at this size is cheaper
    // than a single stray block probe.
    if (n < kSortedSlabMin) return insert_small_deduped(keys);
    // Adaptive §5.4: a duplicate-free batch gains nothing from the dedup
    // sort, and insert_bulk's pipeline already keeps its scattered block
    // fetches in flight, so only skewed batches pay for the sort.
    if (!par::sample_has_duplicates(keys)) return insert_bulk(keys);
    std::vector<uint64_t> order(n);
    std::vector<uint64_t> payload(keys.begin(), keys.end());
    gpu::launch_threads(n, [&](uint64_t i) {
      const hashed h = hash_key(keys[i]);
      order[i] = (h.b1 << 16) | h.fp;
    });
    par::radix_sort_by_key(order, payload,
                           util::log2_ceil(blocks_.size()) + 16);
    return gpu::launch_sum(n, [&](uint64_t begin, uint64_t end) {
      return insert_runs(begin, end, [&](uint64_t i) { return payload[i]; });
    });
  }

  /// Counted sorted-slab insert: keys[i] is stored once (the TCF has no
  /// counter channel — §5.4 compression collapses its duplicates); returns
  /// the sum of counts[i] over keys that landed, i.e. the number of
  /// original batch instances whose membership is now answered — never the
  /// number of distinct keys placed (store/any_filter.h's insert_counted
  /// contract; the sharded store charges the shortfall against the raw
  /// batch size as insert failures).
  uint64_t insert_counted_sorted(std::span<const uint64_t> keys,
                                 std::span<const uint64_t> counts) {
    const uint64_t n = keys.size();
    std::vector<uint64_t> index(n);
    if (n < kSortedSlabMin) {
      std::iota(index.begin(), index.end(), uint64_t{0});
    } else {
      std::vector<uint64_t> order(n);
      gpu::launch_threads(n, [&](uint64_t i) {
        order[i] = util::fast_range(util::murmur64(keys[i]), blocks_.size());
        index[i] = i;
      });
      par::radix_sort_by_key(order, index,
                             std::max(util::log2_ceil(blocks_.size()), 1));
    }
    return gpu::launch_sum(n, [&](uint64_t begin, uint64_t end) {
      uint64_t placed = 0, instances = 0;
      pipelined(begin, end, [&](uint64_t i) { return keys[index[i]]; },
                [&](uint64_t i, const hashed& h) {
                  if (!place(h)) return;
                  ++placed;
                  instances += counts[index[i]];
                });
      // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
      live_.fetch_add(placed, std::memory_order_relaxed);
      return instances;
    });
  }

  /// Serial §5.4 path for sub-slab batches: sort, insert each distinct key
  /// once, and answer its duplicates from that one stored fingerprint.
  /// Returns batch instances answered, matching insert_bulk_sorted().
  uint64_t insert_small_deduped(std::span<const uint64_t> keys) {
    const uint64_t n = keys.size();
    if (n < 2) return insert_bulk(keys);
    std::vector<uint64_t> sorted(keys.begin(), keys.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      return insert_bulk(keys);  // duplicate-free: no dedup to exploit
    return insert_runs(0, n, [&](uint64_t i) { return sorted[i]; });
  }

  // -- Enumeration ------------------------------------------------------------

  /// Visit every stored entry as (block index, fingerprint, value) — the
  /// enumeration capability §1 lists.  Entries in the backing table are
  /// visited with block index == capacity()/NumSlots (a sentinel), since
  /// their home block is not recoverable from the store.  Not stable
  /// under concurrent writers.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (uint64_t b = 0; b < blocks_.size(); ++b) {
      for (unsigned s = 0; s < NumSlots; ++s) {
        uint16_t v = blocks_[b].load(s);
        if (block_type::is_empty(v) || block_type::is_tombstone(v)) continue;
        fn(b, static_cast<uint16_t>(v >> ValBits),
           static_cast<uint16_t>(v & val_mask()));
      }
    }
    backing_.for_each_slot([&](uint16_t v) {
      fn(blocks_.size(), static_cast<uint16_t>(v >> ValBits),
         static_cast<uint16_t>(v & val_mask()));
    });
  }

  // -- Introspection --------------------------------------------------------

  uint64_t capacity() const { return blocks_.size() * NumSlots; }
  // relaxed: monotone gauge read; a stale value is acceptable.
  uint64_t size() const { return live_.load(std::memory_order_relaxed); }
  double load_factor() const {
    return static_cast<double>(size()) / static_cast<double>(capacity());
  }
  uint64_t backing_size() const { return backing_.size(); }
  size_t memory_bytes() const {
    return blocks_.bytes() + backing_.memory_bytes();
  }
  /// The main table's blocks (read-only; for layout and page checks).
  std::span<const block_type> blocks() const {
    return {blocks_.data(), blocks_.size()};
  }

  // -- Serialization ---------------------------------------------------------

  /// Write the filter to a stream.  Not thread-safe against writers.
  void save(std::ostream& out) const {
    util::write_header(out, kFileMagic, kFileVersion);
    util::write_pod<uint32_t>(out, FpBits);
    util::write_pod<uint32_t>(out, NumSlots);
    util::write_pod<uint32_t>(out, ValBits);
    // Field-wise, not write_pod(cfg_): raw struct writes would include
    // indeterminate padding bytes, breaking bit-exact round trips.
    util::write_pod(out, cfg_.backing_fraction);
    util::write_pod<uint8_t>(out, cfg_.enable_backing ? 1 : 0);
    util::write_pod<uint8_t>(out, cfg_.enable_shortcut ? 1 : 0);
    util::write_pod(out, cfg_.shortcut_cutoff);
    util::write_pod<uint32_t>(out, cfg_.cg_size);
    util::write_pod(out, shortcut_threshold_);
    // relaxed: save()/load() are not thread-safe against writers by contract.
    util::write_pod(out, live_.load(std::memory_order_relaxed));
    util::write_array(out, blocks_.data(), blocks_.size());
    backing_.save(out);
  }

  /// Read a filter previously written by save().  Throws on malformed
  /// input or a template-geometry mismatch.
  static tcf load(std::istream& in) {
    util::expect_header(in, kFileMagic, kFileVersion);
    if (util::read_pod<uint32_t>(in) != FpBits ||
        util::read_pod<uint32_t>(in) != NumSlots ||
        util::read_pod<uint32_t>(in) != ValBits)
      throw std::runtime_error("gf: TCF variant mismatch");
    tcf f(1);
    f.cfg_.backing_fraction = util::read_pod<double>(in);
    f.cfg_.enable_backing = util::read_pod<uint8_t>(in) != 0;
    f.cfg_.enable_shortcut = util::read_pod<uint8_t>(in) != 0;
    f.cfg_.shortcut_cutoff = util::read_pod<double>(in);
    f.cfg_.cg_size = util::read_pod<uint32_t>(in);
    f.shortcut_threshold_ = util::read_pod<unsigned>(in);
    uint64_t live = util::read_pod<uint64_t>(in);
    const uint64_t blocks = util::read_pod<uint64_t>(in);
    if (blocks == 0 || live > blocks * NumSlots * 2)
      throw std::runtime_error("gf: TCF geometry mismatch");
    f.blocks_ = util::zeroed_array<block_type>(blocks);
    util::read_elements(in, f.blocks_.data(), blocks);
    f.backing_.load(in);
    // relaxed: save()/load() are not thread-safe against writers by contract.
    f.live_.store(live, std::memory_order_relaxed);
    return f;
  }
  double bits_per_item(uint64_t items) const {
    return items ? static_cast<double>(memory_bytes()) * 8.0 /
                       static_cast<double>(items)
                 : 0.0;
  }
  const tcf_config& config() const { return cfg_; }

 private:
  struct hashed {
    uint64_t h1, h2;  ///< the two digests
    uint64_t b1, b2;  ///< candidate blocks
    uint16_t fp;      ///< remapped fingerprint
  };

  hashed hash_key(uint64_t key) const {
    hashed h;
    h.h1 = util::murmur64(key);
    h.h2 = util::mix64_b(key);
    h.b1 = util::fast_range(h.h1, blocks_.size());
    h.b2 = util::fast_range(h.h2, blocks_.size());
    uint64_t raw = h.h1 ^ (h.h1 >> 32) ^ (h.h2 << 13);
    if constexpr (ValBits > 0) {
      uint16_t fp = static_cast<uint16_t>(raw & ((1u << FpBits) - 1));
      h.fp = fp == 0 ? 1 : fp;  // keep composite off the sentinels
    } else {
      h.fp = remap_fingerprint<FpBits, block_type::kNeedsNonzeroNibble>(raw);
    }
    return h;
  }

  /// Place an already-hashed key in a slot; the caller counts it in
  /// live_.
  bool place(const hashed& h, uint16_t value = 0) {
    const uint16_t composite = make_composite(h.fp, value);
    gpu::cooperative_group cg(cfg_.cg_size);

    block_type& primary = blocks_[h.b1];
    GF_COUNT(cache_lines_touched, 1);
    unsigned fill1 = block_fill(primary);
    if (cfg_.enable_shortcut && fill1 < shortcut_threshold_) {
      if (block_insert(primary, composite, cg)) {
        GF_COUNT(shortcut_inserts, 1);
        return true;
      }
    }
    block_type& secondary = blocks_[h.b2];
    GF_COUNT(cache_lines_touched, 1);
    unsigned fill2 = block_fill(secondary);
    block_type& first = fill1 <= fill2 ? primary : secondary;
    block_type& second = fill1 <= fill2 ? secondary : primary;
    if (block_insert(first, composite, cg) ||
        block_insert(second, composite, cg))
      return true;
    if (cfg_.enable_backing && backing_.insert(h.h1, h.h2, composite)) {
      GF_COUNT(backing_inserts, 1);
      return true;
    }
    return false;
  }

  /// Tombstone one instance of an already-hashed key; the caller takes it
  /// out of live_.
  bool tombstone(const hashed& h) {
    for (uint64_t b : {h.b1, h.b2}) {
      block_type& blk = blocks_[b];
      // Retry while a matching slot exists: a failed claim means some other
      // operation completed (lock-free progress), most often a neighbor-
      // slot write invalidating the packed-12 word.
      for (;;) {
        int slot = block_find<ValBits>(blk, h.fp);
        if (slot < 0) break;
        uint16_t observed = blk.load(static_cast<unsigned>(slot));
        if (static_cast<uint16_t>(observed >> ValBits) == h.fp &&
            blk.try_delete(static_cast<unsigned>(slot), observed))
          return true;
      }
    }
    return cfg_.enable_backing && backing_.erase(h.h1, h.h2, h.fp, ValBits);
  }

  /// The hash-ahead prefetch pipeline: op(i, hash of key_at(i)) for i in
  /// [begin, end), in order, on the calling thread.  An op spends nearly
  /// all its time waiting on its blocks' cache lines, so the pipeline
  /// hashes kPrefetchDistance keys ahead and prefetches both candidate
  /// blocks and the first backing-table slot of each; many line fetches
  /// are then in flight while earlier keys are operated on.  Hashing reads
  /// only the table geometry and a prefetch changes nothing, so the ops
  /// see exactly what a point loop in the same order would.
  template <class KeyAt, class Op>
  void pipelined(uint64_t begin, uint64_t end, KeyAt&& key_at,
                 Op&& op) const {
    constexpr uint64_t kMask = kPrefetchDistance - 1;
    static_assert((kPrefetchDistance & kMask) == 0);
    hashed ring[kPrefetchDistance]{};
    for (uint64_t i = begin; i < end && i - begin < kPrefetchDistance; ++i)
      ring[i & kMask] = prefetch(hash_key(key_at(i)));
    for (uint64_t i = begin; i < end; ++i) {
      const hashed h = ring[i & kMask];
      if (end - i > kPrefetchDistance)
        ring[i & kMask] = prefetch(hash_key(key_at(i + kPrefetchDistance)));
      op(i, h);
    }
  }

  /// Insert key_at(i) for i in [begin, end), where equal keys are
  /// adjacent: each run of equal keys is inserted once, and every copy
  /// is answered (or charged as failed) with it.  Returns the copies
  /// answered; the runs placed go to live_ in one add.
  template <class KeyAt>
  uint64_t insert_runs(uint64_t begin, uint64_t end, KeyAt&& key_at) {
    uint64_t ok = 0, placed = 0;
    bool run_ok = false;
    pipelined(begin, end, key_at, [&](uint64_t i, const hashed& h) {
      if (i == begin || key_at(i) != key_at(i - 1)) {
        run_ok = place(h);
        placed += run_ok ? 1 : 0;
      }
      ok += run_ok ? 1 : 0;
    });
    // relaxed: live-item gauge; slot visibility is ordered by the claim CAS.
    live_.fetch_add(placed, std::memory_order_relaxed);
    return ok;
  }

  /// contains() on an already-hashed key.
  bool probe(const hashed& h) const {
    GF_COUNT(cache_lines_touched, 1);
    if (block_find<ValBits>(blocks_[h.b1], h.fp) >= 0) return true;
    GF_COUNT(cache_lines_touched, 1);
    if (block_find<ValBits>(blocks_[h.b2], h.fp) >= 0) return true;
    if (!cfg_.enable_backing) return false;
    return backing_.contains(h.h1, h.h2, h.fp, ValBits);
  }

  /// Start the line fetches an op on h will need; returns h.  A block is
  /// not line-aligned, so both of its end bytes are prefetched.  Always
  /// inlined: the pipeline's loops exist to issue these fetches, and the
  /// address guards in util::prefetch_line would otherwise tip gcc into
  /// calling it out of line in some of them.
  [[gnu::always_inline]] const hashed& prefetch(const hashed& h) const {
    for (uint64_t b : {h.b1, h.b2}) {
      const char* p = reinterpret_cast<const char*>(&blocks_[b]);
      util::prefetch_line(p);
      util::prefetch_line(p + sizeof(block_type) - 1);
    }
    if (cfg_.enable_backing) backing_.prefetch(h.h1, h.h2);
    return h;
  }

  static constexpr uint16_t val_mask() {
    return static_cast<uint16_t>((1u << ValBits) - 1);
  }

  static uint16_t make_composite(uint16_t fp, uint16_t value) {
    if constexpr (ValBits == 0)
      return fp;
    else
      return static_cast<uint16_t>((fp << ValBits) | (value & val_mask()));
  }

  /// Algorithm 1: cooperative-group ballot insert into one block.
  bool block_insert(block_type& blk, uint16_t composite,
                    const gpu::cooperative_group& cg) {
    for (unsigned base = 0; base < NumSlots; base += cg.size()) {
      unsigned window =
          NumSlots - base < cg.size() ? NumSlots - base : cg.size();
      uint32_t mask = cg.ballot_window(window, [&](unsigned lane) {
        uint16_t v = blk.load(base + lane);
        return block_type::is_empty(v) || block_type::is_tombstone(v);
      });
      while (mask != 0) {
        unsigned lane = gpu::cooperative_group::leader(mask);
        uint16_t v = blk.load(base + lane);
        uint16_t state = block_type::is_empty(v)       ? kEmpty
                         : block_type::is_tombstone(v) ? kTombstone
                                                       : uint16_t{0xFFFF};
        if (state != 0xFFFF &&
            blk.try_claim(base + lane, state, composite))
          return true;
        mask = gpu::cooperative_group::drop_leader(mask);
      }
    }
    return false;  // no slots were available (Algorithm 1 line 17)
  }

  /// Below this batch size the block sort costs more than the locality it
  /// buys (a few blocks' worth of keys fit in cache anyway).
  static constexpr uint64_t kSortedSlabMin = 256;

  static constexpr uint64_t kFileMagic = 0x4746'5443'4631ull;  // "GFTCF1"
  // v2: tcf_config serialized field-wise (padding-free) instead of as a
  // raw struct; v1 files fail with a clean version error.
  static constexpr uint32_t kFileVersion = 2;

  tcf_config cfg_;
  util::zeroed_array<block_type> blocks_;
  backing_table backing_;
  unsigned shortcut_threshold_;
  std::atomic<uint64_t> live_{0};
};

/// The paper's named variants (Fig. 5 labels are "<fp bits>-<block size>").
using tcf_8_8 = tcf<8, 8>;
using tcf_12_8 = tcf<12, 8>;
using tcf_12_12 = tcf<12, 12>;
using tcf_12_16 = tcf<12, 16>;
using tcf_12_32 = tcf<12, 32>;
using tcf_16_16 = tcf<16, 16>;
using tcf_16_32 = tcf<16, 32>;

/// Default point TCF: 16-bit fingerprints, 32-slot (64-byte) blocks — the
/// ~0.1% false-positive configuration benchmarked in Fig. 3 / Table 2.
using point_tcf = tcf_16_32;

/// Key-value TCF: 12-bit fingerprints with 4-bit values in 16-bit slots
/// (the MetaHipMer configuration: fingerprints -> small counts).
using kv_tcf = tcf<12, 32, 4>;

}  // namespace gf::tcf
