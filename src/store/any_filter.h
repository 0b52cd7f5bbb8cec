// Type-erased filter backend for the sharded store.
//
// The store routes every shard through this small virtual interface so the
// backend is a runtime decision per workload (ROADMAP: multi-backend):
//   * tcf           — point TCF (tcf/tcf.h): fastest membership + deletes,
//                     the paper's headline structure;
//   * gqf           — region-locked GQF (gqf/gqf_point.h): counting,
//                     multiplicity-aware deletes, enumeration;
//   * blocked_bloom — blocked Bloom (baselines/blocked_bloom.h): the
//                     memory floor; membership only, no deletes.
//
// The virtual dispatch costs one indirect call per point op — noise next
// to the cache-line probes each filter performs — and the bulk paths
// amortize it further by draining whole per-shard spans per call.
//
// All backends are safe for concurrent insert/query/erase within a shard
// (the TCF is lock-free, the GQF takes region locks, the blocked Bloom
// uses atomicOr, the bulk TCF holds a reader-writer lock); cross-shard
// concurrency needs no coordination at all.
//
// The *native bulk tier* (insert_bulk / insert_counted / contains_bulk /
// erase_bulk) amortizes the virtual dispatch over whole per-shard spans
// and lets each backend use its paper-native bulk machinery: the GQF's
// even-odd phased inserts (§5.3–5.4), the TCF's sorted-slab ordering, the
// bulk TCF's phased zip merges (§4.2), and the blocked Bloom's prefetch-
// unrolled probes.  Bulk mutations are host-phased like the paper's bulk
// APIs (Table 1): within one shard, callers must not run a bulk mutation
// concurrently with other writers (the store's bulk/drain paths guarantee
// this by running one logical thread per shard).
//
// The per-key read tier (contains_each / count_each) answers a batch key
// by key: out[i] is exactly what contains(keys[i]) / count(keys[i]) would
// return.  It runs serially on the calling thread (never a pool launch —
// the store and the server decide where batches run), so a backend can
// pipeline a batch's cache-line fetches the way the point TCF does.  Like
// every bulk op it is host-phased: no concurrent writer on the filter
// while a batch is probed (concurrent readers are fine).  The defaults
// are the point loops.
#pragma once

#include <atomic>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <shared_mutex>
#include <span>
#include <stdexcept>

#include "baselines/blocked_bloom.h"
#include "gqf/gqf_bulk.h"
#include "gqf/gqf_point.h"
#include "store/batch.h"
#include "tcf/bulk_tcf.h"
#include "tcf/tcf.h"
#include "util/bits.h"
#include "util/io.h"

namespace gf::store {

enum class backend_kind : uint32_t {
  tcf = 0,
  gqf = 1,
  blocked_bloom = 2,
  bulk_tcf = 3,  ///< §4.2 phased bulk TCF; fastest bulk builds, locked point ops
};

/// One past the largest valid backend_kind value (store_io validation).
inline constexpr uint32_t kNumBackends = 4;

inline const char* backend_name(backend_kind k) {
  switch (k) {
    case backend_kind::tcf: return "tcf";
    case backend_kind::gqf: return "gqf";
    case backend_kind::blocked_bloom: return "bbf";
    case backend_kind::bulk_tcf: return "btcf";
  }
  return "?";
}

class any_filter {
 public:
  virtual ~any_filter() = default;

  virtual backend_kind kind() const = 0;

  /// Insert `count` instances; false when the backend refused (full).
  /// Non-counting backends treat count > 1 as count == 1.
  virtual bool insert(uint64_t key, uint64_t count) = 0;
  virtual bool contains(uint64_t key) const = 0;
  /// Stored multiplicity; membership-only backends answer 0 or 1.
  virtual uint64_t count(uint64_t key) const = 0;
  /// Remove one instance; false when absent or deletes are unsupported.
  virtual bool erase(uint64_t key) = 0;

  // -- Native bulk tier (host-phased within a shard; see header comment) ---
  //
  // Return-unit contract: every bulk insert returns *batch instances now
  // answered* — for insert_bulk, occurrences in `keys` (duplicates
  // included, even when the backend dedups them into one stored
  // fingerprint); for insert_counted, the sum of counts[i] over pairs
  // that landed.  NEVER the number of distinct keys placed: the store
  // charges `batch size - return` against insert_failures and
  // batch_result::inserted, so a distinct-key return would spuriously
  // inflate failures on every duplicate-heavy batch
  // (tests/store_bulk_test.cpp locks this in per backend).

  /// Insert a batch; returns the number of batch instances answered (see
  /// the tier contract above).  Defaults to the point loop; backends
  /// override with their native bulk machinery.
  virtual uint64_t insert_bulk(std::span<const uint64_t> keys) {
    uint64_t ok = 0;
    for (uint64_t key : keys) ok += insert(key, 1) ? 1 : 0;
    return ok;
  }

  /// Insert (keys[i], counts[i]) pairs — the §5.4 count-compressed form of
  /// a batch.  Counting backends store the multiplicity; membership-only
  /// backends store each key once (its duplicates are answered by that one
  /// copy).  Returns the number of batch *instances* now answered, i.e.
  /// the sum of counts[i] over pairs that landed — the unit the store's
  /// batch accounting works in (see the tier contract above; returning
  /// distinct keys placed here would make a fully-successful compressed
  /// batch look mostly failed).
  virtual uint64_t insert_counted(std::span<const uint64_t> keys,
                                  std::span<const uint64_t> counts) {
    uint64_t instances = 0;
    for (size_t i = 0; i < keys.size(); ++i)
      if (insert(keys[i], counts[i])) instances += counts[i];
    return instances;
  }

  /// Number of batch keys the filter answers positively.
  virtual uint64_t contains_bulk(std::span<const uint64_t> keys) const {
    uint64_t found = 0;
    for (uint64_t key : keys) found += contains(key) ? 1 : 0;
    return found;
  }

  /// out[i] = contains(keys[i]) as 0/1; out.size() == keys.size().
  virtual void contains_each(std::span<const uint64_t> keys,
                             std::span<uint8_t> out) const {
    for (size_t i = 0; i < keys.size(); ++i) out[i] = contains(keys[i]);
  }

  /// out[i] = count(keys[i]); out.size() == keys.size().
  virtual void count_each(std::span<const uint64_t> keys,
                          std::span<uint64_t> out) const {
    for (size_t i = 0; i < keys.size(); ++i) out[i] = count(keys[i]);
  }

  /// Remove one instance per batch occurrence; returns instances removed.
  virtual uint64_t erase_bulk(std::span<const uint64_t> keys) {
    uint64_t ok = 0;
    for (uint64_t key : keys) ok += erase(key) ? 1 : 0;
    return ok;
  }

  /// True when insert_bulk already neutralizes duplicate-heavy batches
  /// (the GQF's §5.4 map-reduce, the TCF's sorted-slab dedup, the Bloom's
  /// idempotent bit sets).  When false, the shard runs the store-level
  /// §5.4 sort + reduce_by_key compression in front of insert_counted.
  virtual bool native_batch_dedup() const { return false; }

  /// Live stored entries.  Semantics follow the backend's strongest
  /// observable notion: distinct fingerprints for the GQF, stored slots
  /// (duplicates included) for the TCF, and the raw insert tally for the
  /// Bloom — a bit array cannot observe duplicates, so repeated-key
  /// traffic inflates it (and load_factor() past 1.0 honestly signals
  /// the resulting false-positive degradation).
  virtual uint64_t size() const = 0;
  virtual uint64_t capacity() const = 0;  ///< provisioned item budget
  virtual size_t memory_bytes() const = 0;

  virtual bool supports_deletes() const = 0;
  virtual bool supports_counting() const = 0;

  /// Serialize backend state (each backend's own magic + version + payload
  /// via util/io.h).  Pair with load_filter().
  virtual void save(std::ostream& out) const = 0;

  double load_factor() const {
    return capacity() ? static_cast<double>(size()) /
                            static_cast<double>(capacity())
                      : 0.0;
  }
};

namespace detail {

/// Slot headroom so a backend holds `capacity` items below its stable load
/// factor (~85% for the TCF main table and the GQF's quotient space).
inline uint64_t provisioned_slots(uint64_t capacity) {
  return capacity + capacity / 5 + 64;
}

class tcf_backend final : public any_filter {
 public:
  explicit tcf_backend(uint64_t capacity)
      : cap_(capacity), filter_(provisioned_slots(capacity)) {}
  tcf_backend(uint64_t capacity, tcf::point_tcf&& f)
      : cap_(capacity), filter_(std::move(f)) {}

  backend_kind kind() const override { return backend_kind::tcf; }
  bool insert(uint64_t key, uint64_t) override { return filter_.insert(key); }
  bool contains(uint64_t key) const override { return filter_.contains(key); }
  uint64_t count(uint64_t key) const override {
    return filter_.contains(key) ? 1 : 0;
  }
  bool erase(uint64_t key) override { return filter_.erase(key); }
  uint64_t insert_bulk(std::span<const uint64_t> keys) override {
    return filter_.insert_bulk_sorted(keys);
  }
  uint64_t insert_counted(std::span<const uint64_t> keys,
                          std::span<const uint64_t> counts) override {
    return filter_.insert_counted_sorted(keys, counts);
  }
  uint64_t contains_bulk(std::span<const uint64_t> keys) const override {
    return filter_.count_contained(keys);
  }
  void contains_each(std::span<const uint64_t> keys,
                     std::span<uint8_t> out) const override {
    filter_.contains_each(keys, [&](size_t i, bool hit) { out[i] = hit; });
  }
  void count_each(std::span<const uint64_t> keys,
                  std::span<uint64_t> out) const override {
    filter_.contains_each(keys, [&](size_t i, bool hit) { out[i] = hit; });
  }
  uint64_t erase_bulk(std::span<const uint64_t> keys) override {
    return filter_.erase_bulk(keys);
  }
  bool native_batch_dedup() const override { return true; }
  uint64_t size() const override { return filter_.size(); }
  uint64_t capacity() const override { return cap_; }
  size_t memory_bytes() const override { return filter_.memory_bytes(); }
  bool supports_deletes() const override { return true; }
  bool supports_counting() const override { return false; }
  void save(std::ostream& out) const override { filter_.save(out); }

 private:
  uint64_t cap_;
  tcf::point_tcf filter_;
};

class gqf_backend final : public any_filter {
 public:
  explicit gqf_backend(uint64_t capacity)
      : cap_(capacity),
        filter_(static_cast<uint32_t>(
                    util::log2_ceil(provisioned_slots(capacity))),
                8) {}
  gqf_backend(uint64_t capacity, gqf::gqf_point<uint8_t>&& f)
      : cap_(capacity), filter_(std::move(f)) {}

  backend_kind kind() const override { return backend_kind::gqf; }
  bool insert(uint64_t key, uint64_t count) override {
    return filter_.insert(key, count == 0 ? 1 : count);
  }
  // Point reads take the region locks: the store's contract allows reads
  // concurrent with point erases, and a GQF deletion rewrites its whole
  // cluster — a lockless probe overlapping that rewrite is a data race.
  // The bulk read tier below stays lockless (host-phased, no writers).
  bool contains(uint64_t key) const override {
    return filter_.contains_locked(key);
  }
  uint64_t count(uint64_t key) const override {
    return filter_.query_locked(key);
  }
  bool erase(uint64_t key) override { return filter_.erase(key); }
  // Bulk ops run the even-odd phased machinery on the core filter,
  // bypassing the point API's region locks — host-phased per shard.
  uint64_t insert_bulk(std::span<const uint64_t> keys) override {
    return gqf::bulk_insert(filter_.filter(), keys, /*map_reduce=*/true)
        .inserted;
  }
  uint64_t insert_counted(std::span<const uint64_t> keys,
                          std::span<const uint64_t> counts) override {
    return gqf::bulk_insert_counted(filter_.filter(), keys, counts).inserted;
  }
  uint64_t contains_bulk(std::span<const uint64_t> keys) const override {
    return filter_.count_contained(keys);
  }
  uint64_t erase_bulk(std::span<const uint64_t> keys) override {
    return gqf::bulk_erase(filter_.filter(), keys);
  }
  bool native_batch_dedup() const override { return true; }
  uint64_t size() const override { return filter_.filter().distinct_items(); }
  uint64_t capacity() const override { return cap_; }
  size_t memory_bytes() const override { return filter_.memory_bytes(); }
  bool supports_deletes() const override { return true; }
  bool supports_counting() const override { return true; }
  void save(std::ostream& out) const override { filter_.save(out); }

 private:
  uint64_t cap_;
  gqf::gqf_point<uint8_t> filter_;
};

class bloom_backend final : public any_filter {
 public:
  // ~8 bits/item with 6 in-block hashes: the memory-floor configuration
  // (false positives ~1%, no deletes; Jünger et al.'s BBF sweet spot).
  static constexpr double kBitsPerItem = 8.0;
  static constexpr unsigned kNumHashes = 6;

  explicit bloom_backend(uint64_t capacity)
      : cap_(capacity),
        filter_(capacity == 0 ? 1 : capacity, kBitsPerItem, kNumHashes) {}
  bloom_backend(uint64_t capacity, uint64_t items,
                baselines::blocked_bloom_filter&& f)
      : cap_(capacity), items_(items), filter_(std::move(f)) {}

  backend_kind kind() const override { return backend_kind::blocked_bloom; }
  bool insert(uint64_t key, uint64_t) override {
    filter_.insert(key);  // Bloom inserts cannot fail (fp rate degrades)
    // relaxed: live-item gauge; slot visibility is ordered by atomicOr.
    items_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool contains(uint64_t key) const override { return filter_.contains(key); }
  uint64_t count(uint64_t key) const override {
    return filter_.contains(key) ? 1 : 0;
  }
  bool erase(uint64_t) override { return false; }
  uint64_t insert_bulk(std::span<const uint64_t> keys) override {
    filter_.insert_bulk(keys);  // prefetch-unrolled batch probe
    // relaxed: live-item gauge; slot visibility is ordered by atomicOr.
    items_.fetch_add(keys.size(), std::memory_order_relaxed);
    return keys.size();
  }
  uint64_t insert_counted(std::span<const uint64_t> keys,
                          std::span<const uint64_t> counts) override {
    filter_.insert_bulk(keys);
    // The tally stays in instance units so a compressed batch moves
    // size() exactly as far as the equivalent point-op flood would.
    uint64_t instances = 0;
    for (uint64_t c : counts) instances += c;
    // relaxed: live-item gauge; slot visibility is ordered by atomicOr.
    items_.fetch_add(instances, std::memory_order_relaxed);
    return instances;
  }
  uint64_t contains_bulk(std::span<const uint64_t> keys) const override {
    return filter_.count_contained(keys);
  }
  uint64_t erase_bulk(std::span<const uint64_t>) override { return 0; }
  // Duplicate inserts re-set the same bits in the same cache line; a
  // store-level compression sort would cost more than it saves.
  bool native_batch_dedup() const override { return true; }
  uint64_t size() const override {
    // relaxed: monotone gauge read; a stale value is acceptable.
    return items_.load(std::memory_order_relaxed);
  }
  uint64_t capacity() const override { return cap_; }
  size_t memory_bytes() const override { return filter_.memory_bytes(); }
  bool supports_deletes() const override { return false; }
  bool supports_counting() const override { return false; }
  void save(std::ostream& out) const override {
    // The bit array cannot reconstruct the insert tally; persist it ahead
    // of the filter payload so size() survives a round trip.
    // relaxed: save()/load() are not thread-safe against writers by contract.
    util::write_pod(out, items_.load(std::memory_order_relaxed));
    filter_.save(out);
  }

 private:
  uint64_t cap_;
  std::atomic<uint64_t> items_{0};
  baselines::blocked_bloom_filter filter_;
};

/// The paper's §4.2 bulk TCF as a store backend: phased zip-merge bulk
/// inserts and binary-search queries.  The structure itself is host-phased
/// (no internal synchronization), so point ops and bulk ops are serialized
/// through a reader-writer lock here — queries share, mutations are
/// exclusive.  Pick it for bulk-dominated pipelines (builds, drains);
/// point-heavy mixed traffic belongs on the lock-free point TCF.
class bulk_tcf_backend final : public any_filter {
 public:
  explicit bulk_tcf_backend(uint64_t capacity)
      : cap_(capacity), filter_(provisioned_slots(capacity)) {}
  bulk_tcf_backend(uint64_t capacity, tcf::bulk_tcf<>&& f)
      : cap_(capacity), filter_(std::move(f)) {}

  backend_kind kind() const override { return backend_kind::bulk_tcf; }
  bool insert(uint64_t key, uint64_t) override {
    std::unique_lock lk(mu_);
    return filter_.insert(key);
  }
  bool contains(uint64_t key) const override {
    std::shared_lock lk(mu_);
    return filter_.contains(key);
  }
  uint64_t count(uint64_t key) const override {
    return contains(key) ? 1 : 0;
  }
  bool erase(uint64_t key) override {
    std::unique_lock lk(mu_);
    return filter_.erase(key);
  }
  uint64_t insert_bulk(std::span<const uint64_t> keys) override {
    std::unique_lock lk(mu_);
    return filter_.insert_bulk(keys);
  }
  uint64_t insert_counted(std::span<const uint64_t> keys,
                          std::span<const uint64_t> counts) override {
    std::unique_lock lk(mu_);
    uint64_t placed = filter_.insert_bulk(keys);
    uint64_t instances = 0;
    if (placed == keys.size()) {
      for (uint64_t c : counts) instances += c;
      return instances;
    }
    // The phased inserter reports how many keys placed, not which.  A
    // refused pair loses its whole multiplicity — a hot key turned away
    // near capacity must show up as counts[i] failures, not one — so
    // attribute per pair by membership (fingerprint aliasing can
    // overcount a hair; refusals themselves are the rare case).
    for (size_t i = 0; i < keys.size(); ++i)
      if (filter_.contains(keys[i])) instances += counts[i];
    return instances;
  }
  uint64_t contains_bulk(std::span<const uint64_t> keys) const override {
    std::shared_lock lk(mu_);
    return filter_.count_contained(keys);
  }
  // One shared lock per batch instead of one per key.
  void contains_each(std::span<const uint64_t> keys,
                     std::span<uint8_t> out) const override {
    std::shared_lock lk(mu_);
    for (size_t i = 0; i < keys.size(); ++i)
      out[i] = filter_.contains(keys[i]);
  }
  void count_each(std::span<const uint64_t> keys,
                  std::span<uint64_t> out) const override {
    std::shared_lock lk(mu_);
    for (size_t i = 0; i < keys.size(); ++i)
      out[i] = filter_.contains(keys[i]);
  }
  uint64_t erase_bulk(std::span<const uint64_t> keys) override {
    std::unique_lock lk(mu_);
    return filter_.erase_bulk(keys);
  }
  uint64_t size() const override {
    std::shared_lock lk(mu_);
    return filter_.size();
  }
  uint64_t capacity() const override { return cap_; }
  size_t memory_bytes() const override { return filter_.memory_bytes(); }
  bool supports_deletes() const override { return true; }
  bool supports_counting() const override { return false; }
  void save(std::ostream& out) const override {
    std::shared_lock lk(mu_);
    filter_.save(out);
  }

 private:
  uint64_t cap_;
  mutable std::shared_mutex mu_;
  tcf::bulk_tcf<> filter_;
};

}  // namespace detail

/// Construct a fresh backend provisioned for `capacity` items.
inline std::unique_ptr<any_filter> make_filter(backend_kind kind,
                                               uint64_t capacity) {
  switch (kind) {
    case backend_kind::tcf:
      return std::make_unique<detail::tcf_backend>(capacity);
    case backend_kind::gqf:
      return std::make_unique<detail::gqf_backend>(capacity);
    case backend_kind::blocked_bloom:
      return std::make_unique<detail::bloom_backend>(capacity);
    case backend_kind::bulk_tcf:
      return std::make_unique<detail::bulk_tcf_backend>(capacity);
  }
  throw std::runtime_error("gf: unknown store backend");
}

/// Restore a backend previously written by any_filter::save().  `capacity`
/// is the provisioned budget recorded by the store container (store_io.h);
/// the payload geometry is validated by each backend's own loader.
inline std::unique_ptr<any_filter> load_filter(backend_kind kind,
                                               uint64_t capacity,
                                               std::istream& in) {
  switch (kind) {
    case backend_kind::tcf:
      return std::make_unique<detail::tcf_backend>(capacity,
                                                   tcf::point_tcf::load(in));
    case backend_kind::gqf:
      return std::make_unique<detail::gqf_backend>(
          capacity, gqf::gqf_point<uint8_t>::load(in));
    case backend_kind::blocked_bloom: {
      uint64_t items = util::read_pod<uint64_t>(in);
      return std::make_unique<detail::bloom_backend>(
          capacity, items, baselines::blocked_bloom_filter::load(in));
    }
    case backend_kind::bulk_tcf:
      return std::make_unique<detail::bulk_tcf_backend>(
          capacity, tcf::bulk_tcf<>::load(in));
  }
  throw std::runtime_error("gf: unknown store backend");
}

}  // namespace gf::store
