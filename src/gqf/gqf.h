// The GQF core: a counting quotient filter with byte-aligned slots
// (paper §5; the data-structure design follows Pandey et al.'s CQF).
//
// Layout.  The table is an array of 64-slot blocks.  Each block carries
// three metadata bitvectors — `occupieds` (quotient has a run), `runends`
// (slot ends a run), and `counts` (slot holds a counter digit, not a
// remainder head; see DESIGN.md §4 for why this reproduction uses the
// flagged-slot counter encoding) — plus a 16-bit `offset` implementing the
// rank/select shortcut, and 64 remainder slots of 8/16/32/64 bits ("the
// GQF supports 8, 16, 32, and 64 bit remainders in order to keep the slots
// in the table machine-word aligned", §6).
//
// Hashing.  A key hashes to a p-bit fingerprint, p = q + r; the top q bits
// (quotient) select the canonical slot, the low r bits (remainder) are
// stored.  Runs of remainders sharing a quotient are kept sorted and
// placed by Robin Hood hashing; a maximal group of adjacent runs is a
// cluster (§5.1).
//
// Counters.  A remainder with count c stores c-1 as little-endian base-2^r
// digits in `counts`-flagged slots following the head (count 1 = head
// only; no leading zero digit).  Increments that do not change the digit
// count rewrite digits in place — this is why counting workloads with
// small counts are fast (§6.7).  Values can be associated with items by
// re-purposing the counter channel (§2), exposed as insert_value/
// query_value.
//
// Concurrency.  This core class is *not* internally synchronized: the
// point API wraps it in 8192-slot region locks (gqf_point.h) and the bulk
// API partitions it into even-odd exclusive regions (gqf_bulk.h), exactly
// as the paper's GPU implementation does.  The only atomic member is the
// item counter.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "util/bits.h"
#include "util/counters.h"
#include "util/hash.h"
#include "util/io.h"

namespace gf::gqf {

/// Slots per metadata block (one occupieds/runends/counts word each).
inline constexpr uint64_t kBlockSlots = 64;

/// Region granularity for locking and even-odd bulk phases (paper §5.2:
/// "we divide the filter into sections of 8192 slots").
inline constexpr uint64_t kRegionSlots = 8192;

template <class SlotT>
class gqf_filter {
  static_assert(std::is_unsigned_v<SlotT>);

 public:
  static constexpr unsigned kSlotBits = 8 * sizeof(SlotT);

  /// A filter with 2^q_bits canonical slots and r_bits-bit remainders
  /// (r_bits <= slot width).  One extra region of padding slots absorbs
  /// clusters that spill past the last canonical slot.
  gqf_filter(uint32_t q_bits, uint32_t r_bits)
      : q_bits_(q_bits),
        r_bits_(r_bits),
        num_quotients_(uint64_t{1} << q_bits),
        total_slots_(((uint64_t{1} << q_bits) + kRegionSlots + kBlockSlots -
                      1) /
                     kBlockSlots * kBlockSlots),
        blocks_(total_slots_ / kBlockSlots) {
    if (r_bits_ == 0 || r_bits_ > kSlotBits) r_bits_ = kSlotBits;
  }

  gqf_filter(const gqf_filter& other)
      : q_bits_(other.q_bits_),
        r_bits_(other.r_bits_),
        num_quotients_(other.num_quotients_),
        total_slots_(other.total_slots_),
        blocks_(other.blocks_),
        // relaxed: move/ctor runs single-threaded by contract.
        size_(other.size_.load(std::memory_order_relaxed)),
        distinct_(other.distinct_.load(std::memory_order_relaxed)) {}
  gqf_filter& operator=(const gqf_filter&) = delete;
  gqf_filter(gqf_filter&& other) noexcept
      : q_bits_(other.q_bits_),
        r_bits_(other.r_bits_),
        num_quotients_(other.num_quotients_),
        total_slots_(other.total_slots_),
        blocks_(std::move(other.blocks_)),
        // relaxed: move/ctor runs single-threaded by contract.
        size_(other.size_.load(std::memory_order_relaxed)),
        distinct_(other.distinct_.load(std::memory_order_relaxed)) {}
  gqf_filter& operator=(gqf_filter&& other) noexcept {
    q_bits_ = other.q_bits_;
    r_bits_ = other.r_bits_;
    num_quotients_ = other.num_quotients_;
    total_slots_ = other.total_slots_;
    blocks_ = std::move(other.blocks_);
    // relaxed: move/ctor runs single-threaded by contract.
    size_.store(other.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    distinct_.store(other.distinct_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    return *this;
  }

  // -- Hash plumbing --------------------------------------------------------

  uint32_t quotient_bits() const { return q_bits_; }
  uint32_t remainder_bits() const { return r_bits_; }
  uint64_t fingerprint_bits() const { return q_bits_ + r_bits_; }

  /// Key -> p-bit fingerprint (invertible given the full 64-bit hash
  /// space; we truncate to p = q + r as the CQF does).
  uint64_t hash_of(uint64_t key) const {
    return util::murmur64(key) & util::bitmask(fingerprint_bits());
  }

  uint64_t quotient_of(uint64_t hash) const { return hash >> r_bits_; }
  uint64_t remainder_of(uint64_t hash) const {
    return hash & util::bitmask(r_bits_);
  }
  uint64_t region_of_hash(uint64_t hash) const {
    return quotient_of(hash) / kRegionSlots;
  }
  uint64_t num_regions() const { return total_slots_ / kRegionSlots + 1; }

  // -- Key-level convenience API (single-threaded) --------------------------

  bool insert(uint64_t key, uint64_t count = 1) {
    return insert_hash(hash_of(key), count);
  }
  uint64_t query(uint64_t key) const { return query_hash(hash_of(key)); }
  bool contains(uint64_t key) const { return query(key) > 0; }
  bool erase(uint64_t key, uint64_t count = 1) {
    return remove_hash(hash_of(key), count);
  }

  /// Value association (paper §2: "re-purposing the variable-sized
  /// counters to store values").  The value rides the counter channel, so
  /// a key is either counted or value-mapped, not both.
  bool insert_value(uint64_t key, uint64_t value) {
    return insert_hash(hash_of(key), value + 1);
  }
  std::optional<uint64_t> query_value(uint64_t key) const {
    uint64_t c = query(key);
    if (c == 0) return std::nullopt;
    return c - 1;
  }

  // -- Core fingerprint-level operations ------------------------------------

  /// Insert `count` instances of a fingerprint in one walk: locate the
  /// slot the new head or digits go to, find the k empty slots the shift
  /// fills, then write.  Every slot and metadata block it reads or writes
  /// lies below `slot_limit` (a multiple of kBlockSlots; the whole table
  /// by default), and when the run or the k empty slots reach the limit it
  /// returns false before any write, so a refusal leaves the filter
  /// byte-identical.  The even-odd bulk phases pass their region's limit
  /// (gqf_bulk.h); at the default, false means the table is full.
  bool insert_hash(uint64_t hash, uint64_t count = 1,
                   uint64_t slot_limit = ~uint64_t{0}) {
    if (count == 0) return true;
    const uint64_t limit = std::min(slot_limit, total_slots_);
    const uint64_t q = quotient_of(hash);
    const SlotT rem = static_cast<SlotT>(remainder_of(hash));
    if (q >= limit) return false;

    // Locate where the new slots open (`pos`) and the head whose counter
    // then holds value + 1 in ndigits(value) digits.  A new head opens at
    // pos itself; a free canonical slot takes a new run's head as it is.
    uint64_t pos = q, head = q, value = count - 1, old_digits = 0;
    bool new_head = true;
    runend_op op = runend_op::new_run;
    if (is_occupied(q) || is_runend(q) || !is_slot_empty(q)) {
      const uint64_t rend = run_end(q, limit);
      if (rend >= limit) return false;
      pos = rend + 1;  // a new run, or the run's largest remainder
      if (is_occupied(q)) {
        op = runend_op::extend;
        for (uint64_t at = run_start(q); at <= rend;) {
          const SlotT h = get_slot(at);
          uint64_t digits_end = at + 1;
          while (digits_end <= rend && is_count(digits_end)) ++digits_end;
          if (h == rem) {  // bump: the digit string may grow at its end
            new_head = false;
            head = at;
            old_digits = digits_end - at - 1;
            value += 1 + decode_digits(at + 1, digits_end);
            pos = digits_end;
            op = is_runend(pos - 1) ? runend_op::extend : runend_op::interior;
            break;
          }
          if (h > rem) {  // insert before this head
            pos = at;
            op = runend_op::interior;
            break;
          }
          at = digits_end;
        }
      }
    }
    if (new_head) head = pos;
    const uint64_t digits = ndigits(value);
    const uint64_t k = (new_head ? 1 : 0) + digits - old_digits;

    // Find the k empty slots the shift fills, all below the limit; a head
    // and at most 64 digits (r >= 1).
    uint64_t empties[1 + 64];
    for (uint64_t j = 0, from = pos; j < k; from = empties[j++] + 1) {
      empties[j] = find_first_empty_slot(from, limit);
      if (empties[j] >= limit) return false;
    }

    // Write.
    if (k > 0) open_slots(q, pos, empties, k, op, new_head);
    if (new_head) {
      set_slot(head, rem);
      if (op == runend_op::new_run) set_occupied(q, true);
    }
    write_digits(head + 1, value, digits);
    // relaxed: size/distinct gauges; slot words are ordered by the region locks.
    size_.fetch_add(count, std::memory_order_relaxed);
    if (new_head) distinct_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Count of a fingerprint (0 if absent; never under-counts an inserted
  /// item — the counting-filter guarantee).
  uint64_t query_hash(uint64_t hash) const {
    const uint64_t q = quotient_of(hash);
    if (!is_occupied(q)) return 0;
    const uint64_t rem = remainder_of(hash);
    const uint64_t rend = run_end(q);
    uint64_t pos = run_start(q);
    while (pos <= rend) {
      SlotT head = get_slot(pos);
      uint64_t digits_end = pos + 1;
      while (digits_end <= rend && is_count(digits_end)) ++digits_end;
      if (head == static_cast<SlotT>(rem))
        return 1 + decode_digits(pos + 1, digits_end);
      if (head > static_cast<SlotT>(rem)) return 0;
      pos = digits_end;
    }
    return 0;
  }

  /// Remove up to `count` instances of a fingerprint (all of them when
  /// count >= stored count).  Returns false if the fingerprint is absent.
  bool remove_hash(uint64_t hash, uint64_t count = 1) {
    const uint64_t q = quotient_of(hash);
    if (!is_occupied(q)) return false;
    const uint64_t rem = remainder_of(hash);
    const uint64_t rend = run_end(q);
    uint64_t pos = run_start(q);
    while (pos <= rend) {
      SlotT head = get_slot(pos);
      uint64_t digits_end = pos + 1;
      while (digits_end <= rend && is_count(digits_end)) ++digits_end;
      if (head == static_cast<SlotT>(rem)) {
        uint64_t stored = 1 + decode_digits(pos + 1, digits_end);
        uint64_t removed = count < stored ? count : stored;
        uint64_t remaining = stored - removed;
        uint64_t old_digits = digits_end - pos - 1;
        uint64_t new_digits = remaining ? ndigits(remaining - 1) : 0;
        if (remaining > 0 && new_digits == old_digits) {
          write_digits(pos + 1, remaining - 1, new_digits);
        } else {
          uint64_t slots_removed =
              remaining ? old_digits - new_digits : old_digits + 1;
          remove_slots(q, remaining ? pos + 1 + new_digits : pos,
                       slots_removed);
          if (remaining > 0) write_digits(pos + 1, remaining - 1, new_digits);
        }
        // relaxed: size/distinct gauges; slot words are ordered by the region locks.
        size_.fetch_sub(removed, std::memory_order_relaxed);
        if (remaining == 0)
          distinct_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      if (head > static_cast<SlotT>(rem)) return false;
      pos = digits_end;
    }
    return false;
  }

  // -- Enumeration -----------------------------------------------------------

  /// Visit every (fingerprint, count) pair in quotient order.  The
  /// fingerprint reconstructs as (quotient << r) | remainder, so merging
  /// and resizing rebuild exact state.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (uint64_t q = 0; q < num_quotients_; ++q) {
      if (!is_occupied(q)) continue;
      uint64_t rend = run_end(q);
      uint64_t pos = run_start(q);
      while (pos <= rend) {
        SlotT head = get_slot(pos);
        uint64_t digits_end = pos + 1;
        while (digits_end <= rend && is_count(digits_end)) ++digits_end;
        fn((q << r_bits_) | head, 1 + decode_digits(pos + 1, digits_end));
        pos = digits_end;
      }
    }
  }

  /// A filter with double the quotient space (one bit moved from the
  /// remainder to the quotient, p unchanged — the CQF resize rule, so the
  /// false-positive rate for the same item set is preserved).
  gqf_filter resized() const {
    gqf_filter bigger(q_bits_ + 1, r_bits_ - 1);
    for_each([&](uint64_t hash, uint64_t count) {
      bigger.insert_hash(hash, count);
    });
    return bigger;
  }

  /// Merge another filter of identical geometry into this one.
  bool merge(const gqf_filter& other) {
    if (other.q_bits_ != q_bits_ || other.r_bits_ != r_bits_) return false;
    bool ok = true;
    other.for_each([&](uint64_t hash, uint64_t count) {
      ok = insert_hash(hash, count) && ok;
    });
    return ok;
  }

  // -- Introspection ----------------------------------------------------------

  uint64_t num_slots() const { return num_quotients_; }
  uint64_t total_slots() const { return total_slots_; }
  // relaxed: monotone gauge read; a stale value is acceptable.
  uint64_t size() const { return size_.load(std::memory_order_relaxed); }
  uint64_t distinct_items() const {
    return distinct_.load(std::memory_order_relaxed);
  }
  double load_factor() const {
    return static_cast<double>(distinct_items()) /
           static_cast<double>(num_quotients_);
  }
  size_t memory_bytes() const { return blocks_.size() * sizeof(block); }
  double bits_per_item(uint64_t items) const {
    return items ? static_cast<double>(memory_bytes()) * 8.0 /
                       static_cast<double>(items)
                 : 0.0;
  }

  /// Debug invariant walker (tests): checks runend/occupied conservation,
  /// run sortedness, digit flag placement, and all block offsets.
  bool validate(std::string* why = nullptr) const;

  // -- Serialization ----------------------------------------------------------

  /// Write the filter to a stream (little-endian host format; see
  /// util/io.h).  Not thread-safe against concurrent writers.
  void save(std::ostream& out) const {
    util::write_header(out, kFileMagic, kFileVersion);
    util::write_pod(out, q_bits_);
    util::write_pod(out, r_bits_);
    util::write_pod<uint32_t>(out, kSlotBits);
    // relaxed: save()/load() are not thread-safe against writers by contract.
    util::write_pod(out, size_.load(std::memory_order_relaxed));
    util::write_pod(out, distinct_.load(std::memory_order_relaxed));
    util::write_vec(out, blocks_);
  }

  /// Read a filter previously written by save().  Throws on malformed
  /// input or a slot-width mismatch.
  static gqf_filter load(std::istream& in) {
    util::expect_header(in, kFileMagic, kFileVersion);
    uint32_t q = util::read_pod<uint32_t>(in);
    uint32_t r = util::read_pod<uint32_t>(in);
    uint32_t slot_bits = util::read_pod<uint32_t>(in);
    if (slot_bits != kSlotBits)
      throw std::runtime_error("gf: GQF slot width mismatch");
    gqf_filter f(q, r);
    uint64_t size = util::read_pod<uint64_t>(in);
    uint64_t distinct = util::read_pod<uint64_t>(in);
    f.blocks_ = util::read_vec<block>(in);
    if (f.blocks_.size() * kBlockSlots != f.total_slots_)
      throw std::runtime_error("gf: GQF geometry mismatch");
    // relaxed: save()/load() are not thread-safe against writers by contract.
    f.size_.store(size, std::memory_order_relaxed);
    f.distinct_.store(distinct, std::memory_order_relaxed);
    return f;
  }

 private:
  struct block {
    uint64_t occupieds = 0;
    uint64_t runends = 0;
    uint64_t counts = 0;
    uint16_t offset = 0;
    SlotT slots[kBlockSlots] = {};
  };

  enum class runend_op {
    new_run,   ///< the new slot ends a brand-new run
    extend,    ///< the new slot becomes the runend of an existing run
    interior,  ///< the run's end is unchanged (bits shift along)
  };

  // -- Bit plumbing -----------------------------------------------------------

  bool is_occupied(uint64_t q) const {
    return (blocks_[q / 64].occupieds >> (q % 64)) & 1;
  }
  void set_occupied(uint64_t q, bool v) {
    uint64_t m = uint64_t{1} << (q % 64);
    if (v)
      blocks_[q / 64].occupieds |= m;
    else
      blocks_[q / 64].occupieds &= ~m;
  }
  bool is_runend(uint64_t i) const {
    return (blocks_[i / 64].runends >> (i % 64)) & 1;
  }
  void set_runend(uint64_t i, bool v) {
    uint64_t m = uint64_t{1} << (i % 64);
    if (v)
      blocks_[i / 64].runends |= m;
    else
      blocks_[i / 64].runends &= ~m;
  }
  bool is_count(uint64_t i) const {
    return (blocks_[i / 64].counts >> (i % 64)) & 1;
  }
  void set_count(uint64_t i, bool v) {
    uint64_t m = uint64_t{1} << (i % 64);
    if (v)
      blocks_[i / 64].counts |= m;
    else
      blocks_[i / 64].counts &= ~m;
  }
  SlotT get_slot(uint64_t i) const { return blocks_[i / 64].slots[i % 64]; }
  void set_slot(uint64_t i, SlotT v) { blocks_[i / 64].slots[i % 64] = v; }

  // -- Rank/select machinery (ports of the CQF reference routines) -----------

  /// Lower bound on the number of slots at/after `idx` consumed by runs
  /// that begin at or before it; 0 iff slot `idx` is empty.
  uint64_t offset_lower_bound(uint64_t idx) const {
    const block& b = blocks_[idx / 64];
    const uint64_t slot_offset = idx % 64;
    const uint64_t boffset = b.offset;
    const uint64_t occ = b.occupieds & util::bitmask(slot_offset + 1);
    if (boffset <= slot_offset) {
      const uint64_t rends = (b.runends & util::bitmask(slot_offset)) >>
                             boffset;
      return static_cast<uint64_t>(util::popcount(occ)) -
             static_cast<uint64_t>(util::popcount(rends));
    }
    return boffset - slot_offset + static_cast<uint64_t>(util::popcount(occ));
  }

  bool is_slot_empty(uint64_t idx) const {
    return offset_lower_bound(idx) == 0;
  }

  /// First empty slot at or after `from`; `limit` when none lies below
  /// it.  Reads no block at or past `limit` (a multiple of kBlockSlots).
  uint64_t find_first_empty_slot(uint64_t from, uint64_t limit) const {
    for (;;) {
      if (from >= limit) return limit;
      uint64_t t = offset_lower_bound(from);
      if (t == 0) return from;
      from += t;
    }
  }

  /// Position of the runend of quotient q's run (or q itself when the run
  /// is empty/in place) — the CQF run_end routine.  It reads no block at
  /// or past `limit` (a multiple of kBlockSlots): a run end there comes
  /// back as some value >= limit.
  uint64_t run_end(uint64_t q, uint64_t limit = ~uint64_t{0}) const {
    const uint64_t block_idx = q / 64;
    const uint64_t intra = q % 64;
    const uint64_t boffset = blocks_[block_idx].offset;
    const uint64_t intra_rank = static_cast<uint64_t>(
        util::bitrank(blocks_[block_idx].occupieds, static_cast<int>(intra)));

    if (intra_rank == 0)
      return boffset <= intra ? q : 64 * block_idx + boffset - 1;

    uint64_t rank = intra_rank - 1;
    int ignore = static_cast<int>(boffset % 64);
    for (uint64_t b = block_idx + boffset / 64;; ++b, ignore = 0) {
      if (64 * b >= limit) return limit;
      const uint64_t runends = blocks_[b].runends;
      const int off = util::select64v(runends, ignore, static_cast<int>(rank));
      if (off < 64) {
        const uint64_t rend = 64 * b + static_cast<uint64_t>(off);
        return rend < q ? q : rend;
      }
      rank -= static_cast<uint64_t>(util::popcountv(runends, ignore));
    }
  }

  /// First slot of quotient q's run (valid when is_occupied(q)).
  uint64_t run_start(uint64_t q) const {
    return q == 0 ? 0 : run_end(q - 1) + 1;
  }

  // -- Shifting inserts ---------------------------------------------------------

  /// Open the k slots [pos, pos + k) in quotient q's run: shift the full
  /// slots of [pos, empties[k-1]) right into `empties`, the first k empty
  /// slots at or after pos in ascending order, so a stretch between two
  /// of them moves by the number of empties at or after its end.  The
  /// opened slots are flagged as counter digits, except a new head at
  /// pos; `op` says whether the last of them ends the run.
  void open_slots(uint64_t q, uint64_t pos, const uint64_t* empties,
                  uint64_t k, runend_op op, bool new_head) {
    uint64_t dst = empties[k - 1];
    for (uint64_t src = dst, j = k - 1; src-- > pos;) {
      if (j > 0 && src == empties[j - 1]) {
        --j;  // an empty slot: the stretch below it moves one slot less
        continue;
      }
      set_slot(dst, get_slot(src));
      set_runend(dst, is_runend(src));
      set_count(dst, is_count(src));
      --dst;
    }
    for (uint64_t i = pos; i < pos + k; ++i) {
      set_runend(i, false);
      set_count(i, !(new_head && i == pos));
    }
    if (op != runend_op::interior) set_runend(pos + k - 1, true);
    if (op == runend_op::extend) set_runend(pos - 1, false);

    // Offsets: blocks whose first slot lies in (q, empties[j]] gained one
    // covered slot per opened slot (CQF insert bookkeeping).  An offset is
    // bounded by the cluster length, which stays well under 2^16 at
    // supported load factors.
    for (uint64_t j = 0; j < k; ++j) {
      GF_COUNT(slots_shifted, empties[j] - pos - j);
      for (uint64_t b = q / 64 + 1; b <= empties[j] / 64; ++b)
        ++blocks_[b].offset;
    }
  }

  uint64_t decode_digits(uint64_t begin, uint64_t end) const {
    uint64_t v = 0;
    for (uint64_t i = end; i > begin; --i)
      v = (v << r_bits_) | static_cast<uint64_t>(get_slot(i - 1));
    return v;
  }

  void write_digits(uint64_t begin, uint64_t v, uint64_t m) {
    uint64_t base_mask = util::bitmask(r_bits_);
    for (uint64_t d = 0; d < m; ++d) {
      set_slot(begin + d, static_cast<SlotT>(v & base_mask));
      v >>= r_bits_;
    }
  }

  /// Number of base-2^r digits needed for v (0 -> 0 digits).
  uint64_t ndigits(uint64_t v) const {
    uint64_t m = 0;
    while (v) {
      ++m;
      v >>= r_bits_;
    }
    return m;
  }

  // -- Deletion (cluster rewrite) ----------------------------------------------

  /// Remove `count` slots starting at `from` (all belonging to quotient
  /// q's run) and re-layout the containing cluster.
  void remove_slots(uint64_t q, uint64_t from, uint64_t count);

  static constexpr uint64_t kFileMagic = 0x4746'5146'4731ull;  // "GFQFG1"
  static constexpr uint32_t kFileVersion = 1;

  // Declared for tests via friend accessors in gqf_testing.h.
  template <class T>
  friend struct gqf_introspect;
  // The enumeration cursor walks runs with the private rank/select
  // machinery (gqf_cursor.h).
  template <class T>
  friend class gqf_cursor;

  uint32_t q_bits_;
  uint32_t r_bits_;
  uint64_t num_quotients_;
  uint64_t total_slots_;
  std::vector<block> blocks_;
  std::atomic<uint64_t> size_{0};
  std::atomic<uint64_t> distinct_{0};
};

// ---------------------------------------------------------------------------
// Deletion: decode the cluster, drop the removed slots, re-layout.
// Clusters are short on average (O(1)) and bounded by the region size at
// the supported load factors (§5.2), so the rewrite stays cheap; the bulk
// path additionally sorts deletions to touch each cluster once (§6.4).
// ---------------------------------------------------------------------------

template <class SlotT>
void gqf_filter<SlotT>::remove_slots(uint64_t q, uint64_t from,
                                     uint64_t count) {
  // Cluster start: walk canonical-run boundaries back to a slot s that is
  // the first slot of the cluster: s == 0 or slot s-1 empty.
  uint64_t cs = q;
  while (cs > 0 && !is_slot_empty(cs - 1)) --cs;
  // Tighten: the cluster begins at the first occupied quotient >= cs whose
  // run starts there; scanning from cs is correct because slots in
  // [cs, cluster end) are all full.  ce is the first empty slot after
  // the cluster.
  uint64_t ce = find_first_empty_slot(q, total_slots_);
  // (q's run is inside [cs, ce); runs of later quotients may extend past q
  // but the removal only shifts slots in [from+count, ce).)

  struct entry {
    uint64_t quotient;
    SlotT value;
    bool digit;
  };
  std::vector<entry> entries;
  entries.reserve(ce - cs);

  // Decode: the k-th run in the cluster belongs to the k-th occupied
  // quotient in [cs, ce).
  uint64_t cur_q = cs;
  auto next_occupied = [&](uint64_t start) {
    for (uint64_t i = start; i < ce; ++i)
      if (is_occupied(i)) return i;
    return ce;
  };
  cur_q = next_occupied(cs);
  uint64_t slot = cs;
  while (slot < ce && cur_q < ce) {
    // Run of cur_q occupies [slot, its runend].
    uint64_t rend = slot;
    while (!is_runend(rend)) ++rend;
    for (uint64_t i = slot; i <= rend; ++i) {
      if (i >= from && i < from + count) continue;  // dropped
      entries.push_back({cur_q, get_slot(i), is_count(i)});
    }
    slot = rend + 1;
    cur_q = next_occupied(cur_q + 1);
  }

  // Clear the cluster's extent.
  for (uint64_t i = cs; i < ce; ++i) {
    set_slot(i, SlotT{0});
    set_runend(i, false);
    set_count(i, false);
  }
  for (uint64_t i = cs; i < ce; ++i)
    if (is_occupied(i)) set_occupied(i, false);

  // Re-layout with plain Robin Hood placement.
  uint64_t pos = cs;
  uint64_t i = 0;
  while (i < entries.size()) {
    uint64_t run_q = entries[i].quotient;
    if (pos < run_q) pos = run_q;
    uint64_t j = i;
    while (j < entries.size() && entries[j].quotient == run_q) ++j;
    bool any = false;
    for (uint64_t k = i; k < j; ++k) {
      set_slot(pos, entries[k].value);
      set_count(pos, entries[k].digit);
      any = true;
      ++pos;
    }
    if (any) {
      set_runend(pos - 1, true);
      set_occupied(run_q, true);
    }
    i = j;
  }

  // Recompute offsets for every block whose first slot lies in (cs, ce]
  // — left to right, so each computation sees already-fixed predecessors.
  for (uint64_t b = cs / 64 + 1; b <= ce / 64; ++b) {
    uint64_t boundary = 64 * b;
    if (boundary == 0) continue;
    uint64_t re = run_end(boundary - 1);
    blocks_[b].offset = static_cast<uint16_t>(
        re > boundary - 1 ? re - (boundary - 1) : 0);
  }
}

// ---------------------------------------------------------------------------
// Invariant walker.  Re-derives structural facts from first principles and
// cross-checks the rank/select metadata; used heavily by the test suite.
// ---------------------------------------------------------------------------

template <class SlotT>
bool gqf_filter<SlotT>::validate(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };

  // Conservation: one runend per occupied quotient.
  uint64_t occ_total = 0, rend_total = 0, cnt_total = 0;
  for (const block& b : blocks_) {
    occ_total += static_cast<uint64_t>(util::popcount(b.occupieds));
    rend_total += static_cast<uint64_t>(util::popcount(b.runends));
    cnt_total += static_cast<uint64_t>(util::popcount(b.counts));
  }
  if (occ_total != rend_total)
    return fail("popcount(occupieds) != popcount(runends)");
  if (blocks_[0].offset != 0) return fail("block 0 offset must be 0");

  // Walk every run; mark the slots it owns; check sortedness and flags.
  std::vector<uint8_t> owned(total_slots_, 0);
  uint64_t heads = 0, digits = 0, total_count = 0;
  for (uint64_t q = 0; q < num_quotients_; ++q) {
    if (!is_occupied(q)) continue;
    uint64_t rs = run_start(q);
    uint64_t re = run_end(q);
    if (rs < q) return fail("run starts before its quotient");
    if (re < rs) return fail("run ends before it starts");
    if (!is_runend(re)) return fail("run_end position lacks runend bit");
    if (is_count(rs)) return fail("run begins with a counter digit");
    SlotT prev_head = 0;
    bool first = true;
    uint64_t pos = rs;
    while (pos <= re) {
      SlotT head = get_slot(pos);
      if (!first && head <= prev_head) return fail("run not sorted");
      prev_head = head;
      first = false;
      ++heads;
      uint64_t dend = pos + 1;
      while (dend <= re && is_count(dend)) ++dend;
      digits += dend - pos - 1;
      total_count += 1 + decode_digits(pos + 1, dend);
      for (uint64_t i = pos; i < dend; ++i) {
        if (owned[i]) return fail("slot owned by two runs");
        owned[i] = 1;
        if (i != re && is_runend(i))
          return fail("interior slot has runend bit");
      }
      pos = dend;
    }
  }
  for (uint64_t i = 0; i < total_slots_; ++i) {
    if (!owned[i] && is_runend(i)) return fail("runend on unowned slot");
    if (!owned[i] && is_count(i)) return fail("count flag on unowned slot");
  }
  // relaxed: validate() is not thread-safe against writers by contract.
  if (heads != distinct_.load(std::memory_order_relaxed))
    return fail("distinct counter out of sync");
  if (total_count != size_.load(std::memory_order_relaxed))
    return fail("size counter out of sync");
  if (cnt_total != digits) return fail("count-flag total mismatch");

  // Offsets: inductive check (block b's expected offset only depends on
  // block b-1's already-verified state).
  for (uint64_t b = 1; b < blocks_.size(); ++b) {
    uint64_t boundary = 64 * b;
    uint64_t re = run_end(boundary - 1);
    uint64_t expect = re > boundary - 1 ? re - (boundary - 1) : 0;
    if (blocks_[b].offset != expect)
      return fail("block offset mismatch at block " + std::to_string(b) +
                  ": stored " + std::to_string(blocks_[b].offset) +
                  " expected " + std::to_string(expect));
  }
  return true;
}

}  // namespace gf::gqf
