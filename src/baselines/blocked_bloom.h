// Blocked Bloom filter baseline (Putze et al.; GPU variant after Jünger et
// al.'s WarpCore, which the paper benchmarks as "BBF").
//
// The first hash selects a 128-byte block (one GPU cache line); the
// remaining k hashes set/test bits inside that block, so every operation
// touches exactly one cache line and uses atomicOr — the design the paper
// credits with satisfying all four GPU principles, at the cost of a ~5x
// higher false-positive rate than a standard BF with equal bits per item.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

namespace gf::baselines {

class blocked_bloom_filter {
 public:
  /// `expected_items` at `bits_per_item` budget with `k` in-block hashes.
  blocked_bloom_filter(uint64_t expected_items, double bits_per_item,
                       unsigned num_hashes);

  void insert(uint64_t key);
  bool contains(uint64_t key) const;

  /// Keys hashed and prefetched together by the batched ops.
  static constexpr uint64_t kProbeChunk = 8;

  /// Batch ops: unrolled in chunks of kProbeChunk keys that hash first and
  /// software-prefetch each target line, then probe — the store's native
  /// bulk tier for this backend.  insert_bulk is safe alongside other
  /// writers (atomicOr); contains_each and count_contained only read.
  void insert_bulk(std::span<const uint64_t> keys);
  /// out[i] = contains(keys[i]) as 0/1 (out.size() == keys.size()),
  /// serially on the calling thread; returns the number of hits.
  uint64_t contains_each(std::span<const uint64_t> keys,
                         std::span<uint8_t> out) const;
  /// Hits in the batch: contains_each over one static range per worker.
  uint64_t count_contained(std::span<const uint64_t> keys) const;

  uint64_t num_blocks() const { return blocks_; }
  unsigned num_hashes() const { return k_; }

  /// Write the filter to a stream (util/io.h format).  Not thread-safe
  /// against concurrent writers.
  void save(std::ostream& out) const;

  /// Read a filter previously written by save().  Throws on malformed or
  /// truncated input.
  static blocked_bloom_filter load(std::istream& in);
  size_t memory_bytes() const { return words_.size() * sizeof(uint32_t); }
  double bits_per_item(uint64_t items) const {
    return items ? static_cast<double>(memory_bytes()) * 8.0 /
                       static_cast<double>(items)
                 : 0.0;
  }

 private:
  static constexpr uint64_t kBlockBits = 1024;  // 128-byte cache line
  static constexpr uint64_t kWordsPerBlock = kBlockBits / 32;
  static constexpr uint64_t kFileMagic = 0x4746'4242'4631ull;  // "GFBBF1"
  static constexpr uint32_t kFileVersion = 1;

  uint64_t blocks_;
  unsigned k_;
  std::vector<uint32_t> words_;
};

}  // namespace gf::baselines
