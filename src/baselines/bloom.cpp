#include "baselines/bloom.h"

#include <cmath>

#include "gpu/atomics.h"
#include "gpu/launch.h"
#include "util/counters.h"
#include "util/hash.h"

namespace gf::baselines {

bloom_filter::bloom_filter(uint64_t expected_items, double fp_rate) {
  double m = std::ceil(-static_cast<double>(expected_items) *
                       std::log(fp_rate) / (std::log(2.0) * std::log(2.0)));
  bits_ = static_cast<uint64_t>(m);
  if (bits_ < 64) bits_ = 64;
  double k = std::round(m / static_cast<double>(expected_items) *
                        std::log(2.0));
  k_ = k < 1 ? 1 : static_cast<unsigned>(k);
  words_.assign((bits_ + 63) / 64, 0);
}

bloom_filter::bloom_filter(uint64_t bits, unsigned num_hashes, int)
    : bits_(bits < 64 ? 64 : bits), k_(num_hashes == 0 ? 1 : num_hashes) {
  words_.assign((bits_ + 63) / 64, 0);
}

uint64_t bloom_filter::bit_index(uint64_t key, unsigned i) const {
  // Kirsch–Mitzenmacher double hashing: h1 + i*h2 gives k independent-
  // enough probe positions from two digests.
  auto [h1, h2] = util::hash2(key);
  return util::fast_range(h1 + i * (h2 | 1), bits_);
}

void bloom_filter::insert(uint64_t key) {
  for (unsigned i = 0; i < k_; ++i) {
    uint64_t bit = bit_index(key, i);
    GF_COUNT(cache_lines_touched, 1);  // each bit lands on a random line
    gpu::atomic_or(&words_[bit / 64], uint64_t{1} << (bit % 64));
  }
}

bool bloom_filter::contains(uint64_t key) const {
  for (unsigned i = 0; i < k_; ++i) {
    uint64_t bit = bit_index(key, i);
    GF_COUNT(cache_lines_touched, 1);
    uint64_t word = gpu::atomic_load(&words_[bit / 64]);
    if ((word & (uint64_t{1} << (bit % 64))) == 0) return false;  // early out
  }
  return true;
}

void bloom_filter::insert_bulk(std::span<const uint64_t> keys) {
  gpu::launch_threads(keys.size(), [&](uint64_t i) { insert(keys[i]); });
}

uint64_t bloom_filter::count_contained(std::span<const uint64_t> keys) const {
  return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
    uint64_t found = 0;
    for (uint64_t i = begin; i < end; ++i) found += contains(keys[i]);
    return found;
  });
}

}  // namespace gf::baselines
