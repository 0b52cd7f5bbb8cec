#include "baselines/blocked_bloom.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "gpu/atomics.h"
#include "gpu/launch.h"
#include "util/counters.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/prefetch.h"

namespace gf::baselines {

blocked_bloom_filter::blocked_bloom_filter(uint64_t expected_items,
                                           double bits_per_item,
                                           unsigned num_hashes)
    : k_(num_hashes == 0 ? 1 : num_hashes) {
  uint64_t total_bits =
      static_cast<uint64_t>(std::ceil(bits_per_item *
                                      static_cast<double>(expected_items)));
  blocks_ = (total_bits + kBlockBits - 1) / kBlockBits;
  if (blocks_ == 0) blocks_ = 1;
  words_.assign(blocks_ * kWordsPerBlock, 0);
}

void blocked_bloom_filter::insert(uint64_t key) {
  auto [h1, h2] = util::hash2(key);
  uint64_t block = util::fast_range(h1, blocks_);
  uint32_t* base = &words_[block * kWordsPerBlock];
  GF_COUNT(cache_lines_touched, 1);  // all k bits share one line
  for (unsigned i = 0; i < k_; ++i) {
    uint64_t h = util::mix64_seeded(h2, i);
    uint64_t bit = h & (kBlockBits - 1);
    gpu::atomic_or(&base[bit / 32], uint32_t{1} << (bit % 32));
  }
}

bool blocked_bloom_filter::contains(uint64_t key) const {
  auto [h1, h2] = util::hash2(key);
  uint64_t block = util::fast_range(h1, blocks_);
  const uint32_t* base = &words_[block * kWordsPerBlock];
  GF_COUNT(cache_lines_touched, 1);
  for (unsigned i = 0; i < k_; ++i) {
    uint64_t h = util::mix64_seeded(h2, i);
    uint64_t bit = h & (kBlockBits - 1);
    if ((gpu::atomic_load(&base[bit / 32]) & (uint32_t{1} << (bit % 32))) == 0)
      return false;
  }
  return true;
}

// -- Batched probes ----------------------------------------------------------
//
// One block = one cache line, so a batch's cost is almost entirely the
// line fetches.  The bulk paths unroll in chunks: first a pass that hashes
// the chunk and issues a software prefetch per target line, then the probe
// pass over lines that are (mostly) already in flight.  Static worker
// ranges keep each worker's chunk pipeline private; the read pipeline is
// contains_each, which count_contained runs over each worker range.

void blocked_bloom_filter::insert_bulk(std::span<const uint64_t> keys) {
  gpu::launch_ranges(keys.size(), [&](unsigned, uint64_t begin, uint64_t end) {
    uint64_t h2s[kProbeChunk];
    uint32_t* bases[kProbeChunk];
    for (uint64_t i = begin; i < end; i += kProbeChunk) {
      const uint64_t m = std::min(kProbeChunk, end - i);
      for (uint64_t j = 0; j < m; ++j) {
        auto [h1, h2] = util::hash2(keys[i + j]);
        h2s[j] = h2;
        bases[j] = &words_[util::fast_range(h1, blocks_) * kWordsPerBlock];
        util::prefetch_line(bases[j], /*write=*/true);
      }
      GF_COUNT(cache_lines_touched, m);
      for (uint64_t j = 0; j < m; ++j) {
        for (unsigned h = 0; h < k_; ++h) {
          uint64_t bit = util::mix64_seeded(h2s[j], h) & (kBlockBits - 1);
          gpu::atomic_or(&bases[j][bit / 32], uint32_t{1} << (bit % 32));
        }
      }
    }
  });
}

void blocked_bloom_filter::save(std::ostream& out) const {
  util::write_header(out, kFileMagic, kFileVersion);
  util::write_pod(out, blocks_);
  util::write_pod<uint32_t>(out, k_);
  util::write_vec(out, words_);
}

blocked_bloom_filter blocked_bloom_filter::load(std::istream& in) {
  util::expect_header(in, kFileMagic, kFileVersion);
  uint64_t blocks = util::read_pod<uint64_t>(in);
  uint32_t k = util::read_pod<uint32_t>(in);
  blocked_bloom_filter f(1, 1.0, k);
  f.words_ = util::read_vec<uint32_t>(in);
  if (blocks == 0 || f.words_.size() != blocks * kWordsPerBlock)
    throw std::runtime_error("gf: blocked-Bloom geometry mismatch");
  f.blocks_ = blocks;
  return f;
}

uint64_t blocked_bloom_filter::contains_each(std::span<const uint64_t> keys,
                                             std::span<uint8_t> out) const {
  uint64_t h2s[kProbeChunk];
  const uint32_t* bases[kProbeChunk];
  uint64_t found = 0;
  for (uint64_t i = 0; i < keys.size(); i += kProbeChunk) {
    const uint64_t m = std::min(kProbeChunk, keys.size() - i);
    for (uint64_t j = 0; j < m; ++j) {
      auto [h1, h2] = util::hash2(keys[i + j]);
      h2s[j] = h2;
      bases[j] = &words_[util::fast_range(h1, blocks_) * kWordsPerBlock];
      util::prefetch_line(bases[j]);
    }
    GF_COUNT(cache_lines_touched, m);
    for (uint64_t j = 0; j < m; ++j) {
      bool hit = true;
      for (unsigned h = 0; h < k_ && hit; ++h) {
        uint64_t bit = util::mix64_seeded(h2s[j], h) & (kBlockBits - 1);
        hit = (gpu::atomic_load(&bases[j][bit / 32]) &
               (uint32_t{1} << (bit % 32))) != 0;
      }
      out[i + j] = hit;
      found += hit;
    }
  }
  return found;
}

uint64_t blocked_bloom_filter::count_contained(
    std::span<const uint64_t> keys) const {
  // Answers land in a stack buffer, a whole number of chunks at a time.
  constexpr uint64_t kBatch = 64 * kProbeChunk;
  return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
    uint8_t hit[kBatch];
    uint64_t found = 0;
    for (uint64_t b = begin; b < end; b += kBatch) {
      const uint64_t n = std::min(kBatch, end - b);
      found += contains_each(keys.subspan(b, n), std::span<uint8_t>(hit, n));
    }
    return found;
  });
}

}  // namespace gf::baselines
