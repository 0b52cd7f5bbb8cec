// Batched-operation vocabulary for the sharded filter store.
//
// The store's async path mirrors the paper's bulk APIs: clients enqueue
// point operations, the store partitions them by shard, and one logical
// thread per shard drains its queue (store.h).  An `op` is deliberately a
// POD triple so batches can be built lock-free by producers and scattered
// with the same radix machinery the bulk-build path uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace gf::store {

enum class op_type : uint8_t {
  insert = 0,  ///< add `count` instances of `key`
  erase = 1,   ///< remove one instance of `key`
  query = 2,   ///< membership probe (result folded into batch_result)
};

struct op {
  uint64_t key = 0;
  uint64_t count = 1;  ///< insert multiplicity (counting backends only)
  op_type type = op_type::insert;
};

inline op make_insert(uint64_t key, uint64_t count = 1) {
  return {key, count, op_type::insert};
}
inline op make_erase(uint64_t key) { return {key, 1, op_type::erase}; }
inline op make_query(uint64_t key) { return {key, 1, op_type::query}; }

/// Length of the maximal run of same-type ops starting at `i`.  The drain
/// path batches each run through the backend's native bulk ops: within a
/// run the ops commute (inserts with inserts, etc.), and run boundaries
/// preserve the enqueue order that gives mixed batches their semantics.
inline size_t run_length(std::span<const op> ops, size_t i) {
  size_t j = i + 1;
  while (j < ops.size() && ops[j].type == ops[i].type) ++j;
  return j - i;
}

/// Aggregate outcome of a drained batch.  Per-op results are intentionally
/// not materialized: the batched path exists for throughput (bulk builds,
/// stream ingest), where aggregate success/failure counts are what callers
/// act on; point APIs serve per-key answers.
struct batch_result {
  uint64_t inserted = 0;       ///< insert ops that landed
  uint64_t insert_failed = 0;  ///< insert ops refused (shard full)
  uint64_t erased = 0;         ///< erase ops that removed an instance
  uint64_t erase_missing = 0;  ///< erase ops for absent keys
  uint64_t query_hits = 0;
  uint64_t query_misses = 0;

  uint64_t total_ops() const {
    return inserted + insert_failed + erased + erase_missing + query_hits +
           query_misses;
  }

  batch_result& operator+=(const batch_result& other) {
    inserted += other.inserted;
    insert_failed += other.insert_failed;
    erased += other.erased;
    erase_missing += other.erase_missing;
    query_hits += other.query_hits;
    query_misses += other.query_misses;
    return *this;
  }
};

}  // namespace gf::store
