#include "baselines/vqf.h"

#include "gpu/launch.h"
#include "util/hash.h"

namespace gf::baselines {

vqf::vqf(uint64_t min_slots)
    : blocks_(min_slots < kSlotsPerBlock
                  ? 1
                  : (min_slots + kSlotsPerBlock - 1) / kSlotsPerBlock) {}

vqf::hashed vqf::hash_key(uint64_t key) const {
  uint64_t h1 = util::murmur64(key);
  uint64_t h2 = util::mix64_b(key);
  uint16_t tag = static_cast<uint16_t>(h1 ^ (h1 >> 32) ^ (h2 << 7));
  if (tag == 0) tag = 1;  // 0 marks an unused tag slot in debug dumps
  return {util::fast_range(h1, blocks_.size()),
          util::fast_range(h2, blocks_.size()), tag};
}

bool vqf::insert(uint64_t key) {
  hashed h = hash_key(key);
  block* lo = &blocks_[h.b1 < h.b2 ? h.b1 : h.b2];
  block* hi = &blocks_[h.b1 < h.b2 ? h.b2 : h.b1];
  lo->acquire();
  if (lo != hi) hi->acquire();

  block* b1 = &blocks_[h.b1];
  block* b2 = &blocks_[h.b2];
  block* target = b1->fill <= b2->fill ? b1 : b2;
  block* other = target == b1 ? b2 : b1;
  bool ok = false;
  for (block* b : {target, other}) {
    if (b->fill < kSlotsPerBlock) {
      b->tags[b->fill++] = h.tag;
      ok = true;
      break;
    }
  }
  if (lo != hi) hi->release();
  lo->release();
  return ok;
}

bool vqf::contains(uint64_t key) const {
  hashed h = hash_key(key);
  for (uint64_t bi : {h.b1, h.b2}) {
    block& b = const_cast<block&>(blocks_[bi]);
    b.acquire();
    bool found = false;
    for (unsigned i = 0; i < b.fill; ++i)
      if (b.tags[i] == h.tag) {
        found = true;
        break;
      }
    b.release();
    if (found) return true;
  }
  return false;
}

bool vqf::erase(uint64_t key) {
  hashed h = hash_key(key);
  for (uint64_t bi : {h.b1, h.b2}) {
    block& b = blocks_[bi];
    b.acquire();
    for (unsigned i = 0; i < b.fill; ++i) {
      if (b.tags[i] == h.tag) {
        b.tags[i] = b.tags[--b.fill];  // unordered block: swap-remove
        b.release();
        return true;
      }
    }
    b.release();
  }
  return false;
}

uint64_t vqf::size() const {
  uint64_t total = 0;
  for (const block& b : blocks_) total += b.fill;
  return total;
}

uint64_t vqf::insert_bulk(std::span<const uint64_t> keys) {
  return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
    uint64_t ok = 0;
    for (uint64_t i = begin; i < end; ++i) ok += insert(keys[i]);
    return ok;
  });
}

uint64_t vqf::count_contained(std::span<const uint64_t> keys) const {
  return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
    uint64_t found = 0;
    for (uint64_t i = begin; i < end; ++i) found += contains(keys[i]);
    return found;
  });
}

}  // namespace gf::baselines
