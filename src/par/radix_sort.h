// LSD radix sort — the substrate's stand-in for thrust::sort.
//
// Both bulk paths in the paper lean on device-wide sorts: the bulk TCF
// sorts items so writes to a block coalesce (§4.2), and the GQF sorts each
// batch so Robin-Hood shifting work vanishes (§5.3, "Sorting hashes").
// Every sort here is stable, which reduce_by_key relies on, and a batch
// picks one of three tiers by its size:
//   * comparison: below serial_radix_sort_min(key_bits) keys, std::sort /
//     std::stable_sort on the caller — a handful of keys costs less to
//     compare than to run 256-bucket prefix scans over;
//   * serial radix: below kParallelSortMin keys, an 8-bit-digit LSD sort on
//     the caller with no pool launch: one read pass counts every digit,
//     then one stable scatter per digit that is not constant over the
//     batch;
//   * parallel radix: per-worker histograms and a ping-pong buffer, one
//     pool launch per histogram and per scatter.
// All three produce the same order, so a caller never sees which ran.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gf::par {

/// Batches of at least this many keys sort on the pool.
inline constexpr uint64_t kParallelSortMin = 4096;

/// Batches below this many keys per radix pass sort by comparison.  From
/// micro_primitives' BM_SortTier row (README, "Benchmarks"): the serial
/// radix tier's fixed cost is a 256-bucket prefix scan per pass, and the
/// comparison sort stops winning at about 24, 45 and 48 keys for 29-, 44-
/// and 64-bit keys (4, 6 and 8 passes).
inline constexpr uint64_t kComparisonKeysPerPass = 8;

/// LSD passes over the low `key_bits` bits (8-bit digits).
constexpr int radix_passes(int key_bits) {
  return ((key_bits < 64 ? key_bits : 64) + 7) / 8;
}

/// The batch size from which the serial radix tier takes over from the
/// comparison sort, for keys of `key_bits` bits.
constexpr uint64_t serial_radix_sort_min(int key_bits) {
  return kComparisonKeysPerPass *
         static_cast<uint64_t>(radix_passes(key_bits));
}

/// Sort `keys` ascending, in place (internally ping-pongs through a
/// temporary buffer of equal size).
void radix_sort(std::span<uint64_t> keys);

/// Sort only by the low `key_bits` bits of each word (skips passes over
/// digits that are known constant — e.g. sorting p-bit fingerprints).
void radix_sort(std::span<uint64_t> keys, int key_bits);

/// Stable key-value sort: reorder `values` alongside `keys`.
void radix_sort_by_key(std::span<uint64_t> keys, std::span<uint64_t> values,
                       int key_bits = 64);

/// The two caller-side tiers on their own, for any batch below
/// kParallelSortMin keys: the tier-cost bench row and the tier tests call
/// them directly.
namespace tier {
void comparison_by_key(std::span<uint64_t> keys, std::span<uint64_t> values);
void serial_radix_by_key(std::span<uint64_t> keys, std::span<uint64_t> values,
                         int key_bits);
}  // namespace tier

}  // namespace gf::par
