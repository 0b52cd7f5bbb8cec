#include "baselines/cpu_cqf.h"

namespace gf::baselines {

cpu_cqf::cpu_cqf(uint32_t q_bits, uint32_t r_bits)
    : core_(q_bits, r_bits), mutexes_(core_.num_regions() + 1) {}

bool cpu_cqf::insert(uint64_t key, uint64_t count) {
  uint64_t hash = core_.hash_of(key);
  return with_region_locks(core_.region_of_hash(hash), [&] {
    return core_.insert_hash(hash, count);
  });
}

uint64_t cpu_cqf::query(uint64_t key) const {
  uint64_t hash = core_.hash_of(key);
  return with_region_locks(core_.region_of_hash(hash), [&] {
    return core_.query_hash(hash);
  });
}

bool cpu_cqf::erase(uint64_t key, uint64_t count) {
  uint64_t hash = core_.hash_of(key);
  return with_region_locks(core_.region_of_hash(hash), [&] {
    return const_cast<gqf::gqf_filter<uint8_t>&>(core_).remove_hash(hash,
                                                                    count);
  });
}

uint64_t cpu_cqf::insert_bulk(std::span<const uint64_t> keys) {
  return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
    uint64_t ok = 0;
    for (uint64_t i = begin; i < end; ++i) ok += insert(keys[i]);
    return ok;
  });
}

uint64_t cpu_cqf::count_contained(std::span<const uint64_t> keys) const {
  return gpu::launch_sum(keys.size(), [&](uint64_t begin, uint64_t end) {
    uint64_t found = 0;
    for (uint64_t i = begin; i < end; ++i) found += contains(keys[i]);
    return found;
  });
}

}  // namespace gf::baselines
