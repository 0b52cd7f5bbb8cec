// TCF block storage.
//
// A block holds `NumSlots` fingerprints of `FpBits` each and is sized to
// fit GPU cache lines (paper §4: "blocks sized to fit inside a GPU cache
// line"; §4.1 caps a block at 128 bytes).  Two layouts:
//
//   * aligned (FpBits 8 or 16): one fingerprint per machine word; every
//     operation is a single atomic transaction, matching "inserts and
//     queries can be performed in one transaction" (§6.3).
//   * packed (FpBits 12): fingerprints are packed end-to-end; 50% of the
//     slots straddle a 32-bit word boundary, so those need two atomic
//     transactions and "an atomicCAS could fail due to a change in bits
//     outside of the slot being operated on" (§4.1).  Failed claims
//     surface to the caller, which re-ballots (Algorithm 1's retry loop).
//
// Block API (used by Algorithm 1 in tcf.h):
//   load(i)                 -> current slot value (12/16/8-bit composite)
//   is_empty/is_tombstone   -> slot-state predicates on a loaded value
//   try_claim(i, state, fp) -> claim an empty/tombstone slot for fp
//   try_delete(i, fp)       -> tombstone a slot believed to hold fp
//   slot_mask(keep, want)   -> (kWordScan layouts) bit i set iff
//                              (slot i & keep) == want, for every slot
//
// Whole-block scan (kWordScan).  The paper probes a block in one cache-
// line transaction (§4, §6.3); the CPU analogue is one SIMD compare over
// the block.  An aligned block whose slots fill whole 16-byte vectors
// (sizeof a multiple of 16) and whose mask fits 64 bits is alignas(16)
// and answers slot_mask() with SSE2, the x86-64 baseline, so no runtime
// dispatch is needed: _mm_cmpeq_epi16 (or _epi8) per vector,
// _mm_packs_epi16 to one byte per slot, _mm_movemask_epi8 to bits.
// block_find takes the lowest set bit of the match mask, the index the
// per-slot loop returns, and block_fill counts the clear bits of the
// free mask (slot <= 1).  alignas(16) never changes sizeof (it is
// already a multiple of 16) nor the allocator (16 is operator new's
// default alignment), so the file format and memory use stay the same.
//
// Relaxed word loads.  The scan reads the block as 64-bit relaxed atomic
// loads (std::atomic_ref over the may_alias slot_word) and assembles the
// vectors with _mm_set_epi64x.  Writers CAS single slots; the two then
// race only as atomics, so a reader sees each slot either before or after
// a claim or delete, exactly as the per-slot acquire loads did.  Relaxed
// is enough: a probe's answer publishes nothing, and erase re-loads the
// slot it found before it CASes.  The packed-12 layout, layouts whose
// sizeof is not a multiple of 16 and non-SSE2 targets keep the per-slot
// loop (kWordScan false).
//
// Packed-12 concurrency protocol: the low nibble of a slot encodes its
// state (0 empty, 1 tombstone, >=2 occupied; tcf_params.h remaps
// fingerprints so their low nibble is >= 2), and the nibble always lives in
// the word holding the slot's low bits.  All ownership transitions are a
// single CAS on that word; only the claimant then writes the slot's high
// bits.  A reader racing with a straddling-slot write can observe a
// transient mixed fingerprint — a possible extra false positive, never a
// structural corruption.  Like the paper's design, deleting a key whose
// insert has not completed is an application-level race with undefined
// results.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "gpu/atomics.h"
#include "tcf/tcf_params.h"
#include "util/counters.h"

namespace gf::tcf {

/// Whether an aligned block of NumSlots FpBits-bit slots is scanned whole
/// (see "Whole-block scan" above).
constexpr bool word_scan(unsigned fp_bits, unsigned num_slots) {
#if defined(__SSE2__)
  return num_slots * fp_bits % 128 == 0 && num_slots <= 64;
#else
  return false;
#endif
}

/// One 64-bit word of a block, read by the whole-block scan.  may_alias:
/// the same bytes are the slot array the writers CAS.
struct [[gnu::may_alias]] alignas(8) slot_word {
  uint64_t bits;
};
static_assert(std::atomic_ref<slot_word>::is_always_lock_free);

/// Aligned layout: FpBits ∈ {8, 16}.
template <unsigned FpBits, unsigned NumSlots>
struct alignas(word_scan(FpBits, NumSlots) ? 16 : FpBits / 8)
    tcf_block_aligned {
  static_assert(FpBits == 8 || FpBits == 16);
  static_assert(NumSlots >= 1 && NumSlots <= 128);
  static_assert(NumSlots * FpBits <= 128 * 8, "block must fit a cache line");
  using storage_type = std::conditional_t<FpBits == 8, uint8_t, uint16_t>;
  static constexpr unsigned kSlots = NumSlots;
  static constexpr unsigned kFpBits = FpBits;
  static constexpr bool kNeedsNonzeroNibble = false;
  static constexpr bool kWordScan = word_scan(FpBits, NumSlots);

  storage_type slots[NumSlots] = {};

  static constexpr bool is_empty(uint16_t v) { return v == kEmpty; }
  static constexpr bool is_tombstone(uint16_t v) { return v == kTombstone; }

  uint16_t load(unsigned i) const { return gpu::atomic_load(&slots[i]); }

  bool try_claim(unsigned i, uint16_t observed_state, uint16_t fp) {
    GF_COUNT(cas_attempts, 1);
    bool ok = gpu::atomic_cas_bool(&slots[i],
                                   static_cast<storage_type>(observed_state),
                                   static_cast<storage_type>(fp));
    if (!ok) GF_COUNT(cas_failures, 1);
    return ok;
  }

  bool try_delete(unsigned i, uint16_t fp) {
    GF_COUNT(cas_attempts, 1);
    bool ok = gpu::atomic_cas_bool(&slots[i], static_cast<storage_type>(fp),
                                   static_cast<storage_type>(kTombstone));
    if (!ok) GF_COUNT(cas_failures, 1);
    return ok;
  }

#if defined(__SSE2__)
  /// Bit i set iff (slot i & keep) == want, from one pass of SSE2
  /// compares over the whole block.
  uint64_t slot_mask(storage_type keep, storage_type want) const
    requires kWordScan
  {
    constexpr unsigned kVectors = sizeof(slots) / 16;
    const __m128i k = splat(keep), w = splat(want);
    auto equal = [&](unsigned v) {
      const __m128i x = _mm_and_si128(load_vector(v), k);
      if constexpr (FpBits == 8) return _mm_cmpeq_epi8(x, w);
      else return _mm_cmpeq_epi16(x, w);
    };
    uint64_t mask = 0;
    if constexpr (FpBits == 8) {
      for (unsigned v = 0; v < kVectors; ++v)
        mask |= static_cast<uint64_t>(static_cast<uint32_t>(
                    _mm_movemask_epi8(equal(v))))
                << (16 * v);
    } else {
      // Two vectors of 16-bit lanes pack (signed saturation keeps 0 and
      // -1) into one byte per slot.
      for (unsigned v = 0; v < kVectors; v += 2) {
        const __m128i hi =
            v + 1 < kVectors ? equal(v + 1) : _mm_setzero_si128();
        mask |= static_cast<uint64_t>(static_cast<uint32_t>(
                    _mm_movemask_epi8(_mm_packs_epi16(equal(v), hi))))
                << (8 * v);
      }
    }
    return mask;
  }

 private:
  static __m128i splat(storage_type v) {
    if constexpr (FpBits == 8) return _mm_set1_epi8(static_cast<char>(v));
    else return _mm_set1_epi16(static_cast<short>(v));
  }

  /// 16 bytes of slots, read as two relaxed 64-bit atomic loads.
  __m128i load_vector(unsigned v) const {
    const slot_word* w = reinterpret_cast<const slot_word*>(slots) + 2 * v;
    auto load = [](const slot_word& x) {
      std::atomic_ref<slot_word> word(const_cast<slot_word&>(x));
      // relaxed: a scan publishes nothing; writers CAS single slots, so
      // each slot reads as before or after a claim, as acquire loads would.
      return static_cast<long long>(word.load(std::memory_order_relaxed).bits);
    };
    return _mm_set_epi64x(load(w[1]), load(w[0]));
  }
#endif
};

/// Packed layout: FpBits == 12, slots straddle 32-bit words.
template <unsigned NumSlots>
struct tcf_block_packed12 {
  static_assert(NumSlots >= 1 && NumSlots <= 85);  // 85*12 bits <= 128B
  static constexpr unsigned kSlots = NumSlots;
  static constexpr unsigned kFpBits = 12;
  static constexpr bool kNeedsNonzeroNibble = true;
  static constexpr bool kWordScan = false;
  static constexpr unsigned kWords = (NumSlots * 12 + 31) / 32;

  uint32_t words[kWords] = {};

  static constexpr bool is_empty(uint16_t v) { return (v & 0xF) == 0; }
  static constexpr bool is_tombstone(uint16_t v) { return (v & 0xF) == 1; }

  uint16_t load(unsigned i) const {
    unsigned bit = i * 12;
    unsigned w = bit / 32, sh = bit % 32;
    uint32_t lo = gpu::atomic_load(&words[w]);
    if (sh + 12 <= 32) return static_cast<uint16_t>((lo >> sh) & 0xFFF);
    uint32_t hi = gpu::atomic_load(&words[w + 1]);
    unsigned lo_bits = 32 - sh;
    return static_cast<uint16_t>(((lo >> sh) | (hi << lo_bits)) & 0xFFF);
  }

  bool try_claim(unsigned i, uint16_t observed_state, uint16_t fp) {
    GF_COUNT(cas_attempts, 1);
    unsigned bit = i * 12;
    unsigned w = bit / 32, sh = bit % 32;
    if (sh + 12 <= 32) {
      // Non-straddling: single transaction on the containing word; fails
      // if *any* bit of the word changed (paper §4.1).
      uint32_t cur = gpu::atomic_load(&words[w]);
      uint16_t slot = static_cast<uint16_t>((cur >> sh) & 0xFFF);
      if (slot != observed_state ||
          !gpu::atomic_cas_bool(&words[w], cur,
                                (cur & ~(0xFFFu << sh)) |
                                    (static_cast<uint32_t>(fp) << sh))) {
        GF_COUNT(cas_failures, 1);
        return false;
      }
      return true;
    }
    // Straddling: claim on the low word (state nibble lives there), then
    // the new owner writes the high bits with a CAS loop over its bits.
    unsigned lo_bits = 32 - sh;
    uint32_t lo_mask = ((1u << lo_bits) - 1) << sh;
    uint32_t cur = gpu::atomic_load(&words[w]);
    uint32_t slot_lo = (cur & lo_mask) >> sh;
    if ((slot_lo & 0xF) != (observed_state & 0xF) ||
        !gpu::atomic_cas_bool(
            &words[w], cur,
            (cur & ~lo_mask) |
                ((static_cast<uint32_t>(fp) << sh) & lo_mask))) {
      GF_COUNT(cas_failures, 1);
      return false;
    }
    GF_COUNT(cas_attempts, 1);  // second transaction ("50% ... two", §4.1)
    unsigned hi_bits = 12 - lo_bits;
    uint32_t hi_mask = (1u << hi_bits) - 1;
    uint32_t des_hi = static_cast<uint32_t>(fp) >> lo_bits;
    for (;;) {
      uint32_t h = gpu::atomic_load(&words[w + 1]);
      uint32_t want = (h & ~hi_mask) | des_hi;
      if (h == want || gpu::atomic_cas_bool(&words[w + 1], h, want))
        return true;
    }
  }

  bool try_delete(unsigned i, uint16_t fp) {
    GF_COUNT(cas_attempts, 1);
    unsigned bit = i * 12;
    unsigned w = bit / 32, sh = bit % 32;
    if (sh + 12 <= 32) {
      uint32_t cur = gpu::atomic_load(&words[w]);
      if (((cur >> sh) & 0xFFF) != fp ||
          !gpu::atomic_cas_bool(
              &words[w], cur,
              (cur & ~(0xFFFu << sh)) |
                  (static_cast<uint32_t>(kTombstone) << sh))) {
        GF_COUNT(cas_failures, 1);
        return false;
      }
      return true;
    }
    // Straddling delete: single CAS on the low word sets the state nibble
    // to TOMBSTONE; stale high bits are ignored by is_tombstone().
    unsigned lo_bits = 32 - sh;
    uint32_t lo_mask = ((1u << lo_bits) - 1) << sh;
    uint32_t cur = gpu::atomic_load(&words[w]);
    uint32_t slot_lo = (cur & lo_mask) >> sh;
    uint32_t fp_lo = fp & ((1u << lo_bits) - 1);
    // Verify the full fingerprint before tombstoning (high bits too).
    uint32_t hi = gpu::atomic_load(&words[w + 1]);
    unsigned hi_bits = 12 - lo_bits;
    uint32_t slot_hi = hi & ((1u << hi_bits) - 1);
    uint16_t full = static_cast<uint16_t>(slot_lo | (slot_hi << lo_bits));
    if (slot_lo != fp_lo || full != fp ||
        !gpu::atomic_cas_bool(
            &words[w], cur,
            (cur & ~lo_mask) |
                (static_cast<uint32_t>(kTombstone) << sh))) {
      GF_COUNT(cas_failures, 1);
      return false;
    }
    return true;
  }
};

/// Layout selector.
template <unsigned FpBits, unsigned NumSlots>
struct tcf_block_selector {
  using type = tcf_block_aligned<FpBits, NumSlots>;
};
template <unsigned NumSlots>
struct tcf_block_selector<12, NumSlots> {
  using type = tcf_block_packed12<NumSlots>;
};

template <unsigned FpBits, unsigned NumSlots>
using tcf_block = typename tcf_block_selector<FpBits, NumSlots>::type;

/// Occupied-slot count ("fill"), used for the POTC choice and the shortcut
/// cutoff.  Tombstones count as free space.  A kWordScan block counts the
/// clear bits of its free mask (slot <= 1: empty or tombstone).
template <class Block>
unsigned block_fill(const Block& b) {
  if constexpr (Block::kWordScan)
    return Block::kSlots -
           static_cast<unsigned>(std::popcount(b.slot_mask(
               static_cast<typename Block::storage_type>(~kTombstone),
               kEmpty)));
  unsigned fill = 0;
  for (unsigned i = 0; i < Block::kSlots; ++i) {
    uint16_t v = b.load(i);
    if (!Block::is_empty(v) && !Block::is_tombstone(v)) ++fill;
  }
  return fill;
}

/// Scan a block for a fingerprint stored as the high bits of slots that
/// hold (fp << ValBits) | value; returns the lowest matching slot index or
/// -1.  A kWordScan block compares every slot at once and takes the
/// lowest set bit of the match mask, the index the per-slot loop returns.
/// The mask skips no sentinel, and needs not: tcf.h's hash_key gives
/// fp >= 2 when ValBits == 0 and fp >= 1 otherwise, so a slot matching
/// fp << ValBits holds at least 2 and is never empty (0) or a tombstone
/// (1).
template <unsigned ValBits, class Block>
int block_find(const Block& b, uint16_t fp) {
  if constexpr (Block::kWordScan) {
    using slot_t = typename Block::storage_type;
    const uint64_t match =
        b.slot_mask(static_cast<slot_t>(~((1u << ValBits) - 1)),
                    static_cast<slot_t>(fp << ValBits));
    return match ? std::countr_zero(match) : -1;
  }
  for (unsigned i = 0; i < Block::kSlots; ++i) {
    uint16_t v = b.load(i);
    if (Block::is_empty(v) || Block::is_tombstone(v)) continue;
    if (static_cast<uint16_t>(v >> ValBits) == fp) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace gf::tcf
