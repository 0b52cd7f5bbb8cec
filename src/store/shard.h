// One shard of the filter store: a cascade of backend instances (a base
// filter plus overflow children attached under load), a pending-operation
// queue for the async batched path, and per-shard operation statistics.
//
// Overflow cascades: filters cannot enumerate their keys, so a hot shard
// cannot be rehashed into a bigger table the way a hash map grows.
// Instead, maintenance (store.h's maintain()) attaches a geometrically-
// sized *overflow child* of the same backend when the deepest level is
// under pressure (occupancy past maintain_config::pressure_load, or fresh
// insert refusals).  Inserts fall through the cascade to the deepest child
// on refusal; queries, counts, and erases walk every level; size(),
// capacity(), and memory_bytes() aggregate levels.  This is rebuild-free
// growth — the same constraint-driven shape as dynamic cuckoo/quotient
// filter designs — so a sustained skewed flood ends in a deeper cascade,
// not a refusal storm.
//
// Concurrency contract:
//   * Point ops (insert/contains/count/erase) are thread-safe — they
//     delegate to the backends, whose internal synchronization (lock-free
//     CAS, region locks, atomicOr, reader-writer lock) carries the
//     guarantee.
//   * enqueue() is thread-safe (queue mutex); producers on any thread may
//     append while other threads run point ops.
//   * drain() detaches the queue under the mutex, then applies it outside
//     the lock, so producers are never blocked behind filter work.  The
//     store runs one logical thread per shard through the pool, mirroring
//     the paper's one-thread-per-region bulk scheme (§5.3).
//   * The native bulk entry points (the *_span calls, which apply's runs
//     use) are host-phased: at most one bulk mutation per shard at a time,
//     and no concurrent point writers — the discipline the store's
//     bulk/drain paths already follow (one logical thread per shard).
//   * The per-key read tier (contains_each/count_each) is read-only but
//     host-phased too: no concurrent writer on the shard while a batch is
//     probed.  Concurrent readers are fine.
//   * maintain() mutates the cascade itself and is host-phased like the
//     bulk ops: do not run it concurrently with any operation on the
//     shard.  The store's maintain() is called between batches.
//
// §5.4 count-compression: a Zipfian flood must perform one counted insert
// per *distinct* key, not one insert per instance.  Backends whose bulk
// machinery already guarantees that (GQF map-reduce, TCF sorted-slab
// dedup, Bloom idempotent bit sets) receive the raw slice; for the rest
// (bulk TCF) the shard radix-sorts the slice and reduce_by_key-compresses
// it into (key, count) pairs in front of insert_counted.  Either way, hot
// keys stop devouring slots — this is what lets TCF shards survive
// hot-key floods.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/store_metrics.h"
#include "par/radix_sort.h"
#include "par/reduce_by_key.h"
#include "store/any_filter.h"
#include "store/batch.h"
#include "util/counters.h"

namespace gf::store {

/// Hard cap on cascade depth per shard — a store file can never demand an
/// absurd level walk (store_io.h validates against this on load), and
/// maintain_config::max_levels is clamped to it.
inline constexpr uint32_t kMaxCascadeLevels = 16;

/// Thresholds for maintain(): when to attach an overflow child to a shard
/// and how big to make it.
struct maintain_config {
  /// Occupancy of the deepest level that signals pressure.  The default
  /// leaves headroom below the backends' stable load (~90% of provisioned
  /// slots) so growth lands *before* refusals start.
  double pressure_load = 0.85;
  /// Insert refusals accumulated since the last growth that signal
  /// pressure regardless of occupancy (the reactive backstop).
  uint64_t failure_threshold = 1;
  /// Child capacity = deepest level capacity × growth_factor (geometric
  /// growth: each attach roughly doubles the shard's headroom by default).
  double growth_factor = 2.0;
  /// Cascade depth cap, base level included (clamped to
  /// kMaxCascadeLevels).  Bounds the per-query level walk.
  uint32_t max_levels = 8;
};

class shard {
 public:
  shard(backend_kind kind, uint64_t capacity) {
    levels_.push_back(make_filter(kind, capacity));
  }
  explicit shard(std::unique_ptr<any_filter> filter) {
    levels_.push_back(std::move(filter));
  }
  /// Assemble a shard around a restored cascade (store_io.h's load path);
  /// levels_[0] is the base, deeper entries are overflow children.
  explicit shard(std::vector<std::unique_ptr<any_filter>> levels)
      : levels_(std::move(levels)) {
    if (levels_.empty())
      throw std::runtime_error("gf: shard requires at least one level");
  }

  /// Batches below this size take the uncompressed path: the key sort
  /// costs more than the duplicates it could merge.
  static constexpr uint64_t kCompressMin = 64;

  /// Insert and erase runs below this length go through the point ops —
  /// the bulk machinery only pays off once the run amortizes it.
  static constexpr size_t kBulkRunMin = 16;

  /// Floor for overflow-child capacity so a tiny shard still grows by a
  /// useful amount.
  static constexpr uint64_t kMinChildCapacity = 64;

  // -- Point ops (thread-safe, stats-counted) ------------------------------

  bool insert(uint64_t key, uint64_t count = 1) {
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    stats_.inserts.fetch_add(1, std::memory_order_relaxed);
    bool ok = cascade_insert(key, count);
    if (!ok) stats_.insert_failures.fetch_add(1, std::memory_order_relaxed);
    return ok;
  }

  bool contains(uint64_t key) const {
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    bool hit = cascade_contains(key);
    if (hit) stats_.query_hits.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }

  uint64_t count(uint64_t key) const {
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    uint64_t c = 0;
    for (const auto& f : levels_) c += f->count(key);
    if (c) stats_.query_hits.fetch_add(1, std::memory_order_relaxed);
    return c;
  }

  // -- Per-key read tier (host-phased, stats-counted) -------------------------
  //
  // out[i] is exactly contains(keys[i]) / count(keys[i]), and the stats
  // move exactly as far as that point loop would — but they are bumped
  // once per batch, and each level answers through its backend's batched
  // probe (any_filter.h).  Serial on the calling thread.

  /// Level 0 probes the whole batch; only its misses move deeper.  Returns
  /// the number of hits.
  uint64_t contains_each(std::span<const uint64_t> keys,
                         std::span<uint8_t> out) const {
    if (keys.empty()) return 0;
    levels_.front()->contains_each(keys, out);
    if (levels_.size() > 1) {
      std::vector<size_t> idx;
      std::vector<uint64_t> rem;
      for (size_t i = 0; i < keys.size(); ++i)
        if (!out[i]) {
          idx.push_back(i);
          rem.push_back(keys[i]);
        }
      std::vector<uint8_t> hit;
      for (size_t l = 1; l < levels_.size() && !rem.empty(); ++l) {
        hit.resize(rem.size());
        levels_[l]->contains_each(rem, hit);
        size_t kept = 0;
        for (size_t j = 0; j < rem.size(); ++j) {
          if (hit[j]) {
            out[idx[j]] = 1;
            continue;
          }
          idx[kept] = idx[j];
          rem[kept++] = rem[j];
        }
        idx.resize(kept);
        rem.resize(kept);
      }
    }
    uint64_t hits = 0;
    for (uint8_t h : out) hits += h;
    note_queries(keys.size(), hits);
    return hits;
  }

  /// Every level counts the whole batch; out[i] is the sum.
  void count_each(std::span<const uint64_t> keys,
                  std::span<uint64_t> out) const {
    if (keys.empty()) return;
    levels_.front()->count_each(keys, out);
    if (levels_.size() > 1) {
      std::vector<uint64_t> deeper(keys.size());
      for (size_t l = 1; l < levels_.size(); ++l) {
        levels_[l]->count_each(keys, deeper);
        for (size_t i = 0; i < keys.size(); ++i) out[i] += deeper[i];
      }
    }
    uint64_t hits = 0;
    for (uint64_t c : out) hits += c != 0;
    note_queries(keys.size(), hits);
  }

  bool erase(uint64_t key) {
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    stats_.erases.fetch_add(1, std::memory_order_relaxed);
    bool ok = false;
    for (const auto& f : levels_)
      if (f->erase(key)) {
        ok = true;
        break;
      }
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    if (!ok) stats_.erase_failures.fetch_add(1, std::memory_order_relaxed);
    return ok;
  }

  // -- Async batched path ---------------------------------------------------

  /// Append an operation to the pending queue (thread-safe, cheap).
  void enqueue(const op& o) {
    std::lock_guard<std::mutex> lk(queue_mu_);
    queue_.push_back(o);
  }

  uint64_t pending() const {
    std::lock_guard<std::mutex> lk(queue_mu_);
    return queue_.size();
  }

  /// Detach and apply every pending operation, in enqueue order.
  batch_result drain() {
    std::vector<op> batch;
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      batch.swap(queue_);
    }
    if (batch.empty()) return {};
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    stats_.batches_drained.fetch_add(1, std::memory_order_relaxed);
    return apply(batch);
  }

  /// Apply a span of operations belonging to this shard.  Maximal runs of
  /// same-type ops are routed through the key-span entry points below and
  /// contains_each (ops within a run commute; run boundaries preserve
  /// batch order), so an all-insert flood becomes one count-compressed
  /// bulk insert instead of one virtual dispatch per key.
  batch_result apply(std::span<const op> ops) {
    batch_result r;
    std::vector<uint64_t> keys, counts;  // one run's columns, reused
    std::vector<uint8_t> hits;           // a query run's answers, reused
    for (size_t i = 0, len = 0; i < ops.size(); i += len) {
      len = run_length(ops, i);
      keys.resize(len);
      counts.resize(len);
      for (size_t j = 0; j < len; ++j) {
        keys[j] = ops[i + j].key;
        counts[j] = ops[i + j].count;
      }
      switch (ops[i].type) {
        case op_type::insert:
          tally(insert_counted_span(keys, counts), len, r.inserted,
                r.insert_failed);
          break;
        case op_type::erase:
          tally(erase_span(keys), len, r.erased, r.erase_missing);
          break;
        case op_type::query:
          hits.resize(len);
          tally(contains_each(keys, hits), len, r.query_hits, r.query_misses);
          break;
      }
    }
    return r;
  }

  /// Bulk-build slice: insert a shard-partition span of keys through the
  /// backend's native bulk path, count-compressed (store.h's bulk tier).
  /// Stats-wise this is one drained batch of N inserts — not N virtual
  /// point dispatches.  Returns the number successfully inserted.
  uint64_t insert_span(std::span<const uint64_t> keys) {
    if (keys.empty()) return 0;
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    stats_.batches_drained.fetch_add(1, std::memory_order_relaxed);
    return bulk_insert_keys(keys);
  }

  /// Counted-insert slice (store.h's bulk tier and apply()'s insert runs):
  /// keys[i] gets counts[i] instances.  A slice of at least kBulkRunMin
  /// keys, all with count 1, takes the compressed bulk path; explicit
  /// multiplicities (rare: counting ingest) and short slices keep exact
  /// per-pair accounting through the point path.  Returns pairs landed.
  uint64_t insert_counted_span(std::span<const uint64_t> keys,
                               std::span<const uint64_t> counts) {
    bool plain = keys.size() >= kBulkRunMin;
    for (size_t i = 0; plain && i < counts.size(); ++i) plain = counts[i] == 1;
    if (plain) return bulk_insert_keys(keys);
    uint64_t ok = 0;
    for (size_t i = 0; i < keys.size(); ++i) ok += insert(keys[i], counts[i]);
    return ok;
  }

  /// Erase slice (store.h's bulk tier and apply()'s erase runs): one
  /// instance per key occurrence, through the cascade's bulk erase from
  /// kBulkRunMin keys on.  Returns the erases that removed an instance.
  uint64_t erase_span(std::span<const uint64_t> keys) {
    const uint64_t n = keys.size();
    if (n < kBulkRunMin) {
      uint64_t ok = 0;
      for (uint64_t k : keys) ok += erase(k);
      return ok;
    }
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    stats_.erases.fetch_add(n, std::memory_order_relaxed);
    const uint64_t ok = bulk_erase_keys(keys);
    if (ok < n)
      // relaxed: op_stats counter; read() snapshots tolerate staleness.
      stats_.erase_failures.fetch_add(n - ok, std::memory_order_relaxed);
    return ok;
  }

  // -- Maintenance -----------------------------------------------------------

  /// Attach an overflow child when the shard is under pressure: the
  /// deepest level's occupancy crossed cfg.pressure_load, or at least
  /// cfg.failure_threshold insert refusals accumulated since the last
  /// growth.  The child uses the same backend, sized geometrically from
  /// the deepest level.  Host-phased — callers must quiesce the shard
  /// (the store's maintain() runs between batches).  Returns true when a
  /// level was attached.
  bool maintain(const maintain_config& cfg) {
    uint32_t max_levels = cfg.max_levels < kMaxCascadeLevels
                              ? cfg.max_levels
                              : kMaxCascadeLevels;
    if (max_levels == 0) max_levels = 1;
    if (levels_.size() >= max_levels) return false;
    const any_filter& deepest = *levels_.back();
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    uint64_t failures =
        stats_.insert_failures.load(std::memory_order_relaxed);
    bool pressure =
        deepest.load_factor() >= cfg.pressure_load ||
        failures - failures_at_growth_ >= cfg.failure_threshold;
    if (!pressure) return false;
    double factor = cfg.growth_factor > 0 ? cfg.growth_factor : 1.0;
    uint64_t child_cap = static_cast<uint64_t>(
        static_cast<double>(deepest.capacity()) * factor);
    if (child_cap < kMinChildCapacity) child_cap = kMinChildCapacity;
    levels_.push_back(make_filter(levels_.front()->kind(), child_cap));
    failures_at_growth_ = failures;
    return true;
  }

  // -- Introspection ---------------------------------------------------------

  /// Base level of the cascade (backend capability probes, v1 store_io).
  any_filter& filter() { return *levels_.front(); }
  const any_filter& filter() const { return *levels_.front(); }

  uint32_t level_count() const {
    return static_cast<uint32_t>(levels_.size());
  }
  any_filter& level(uint32_t i) { return *levels_[i]; }
  const any_filter& level(uint32_t i) const { return *levels_[i]; }

  /// Cascade aggregates: live items, provisioned budget, and footprint
  /// across every level.
  uint64_t size() const {
    uint64_t n = 0;
    for (const auto& f : levels_) n += f->size();
    return n;
  }
  uint64_t capacity() const {
    uint64_t n = 0;
    for (const auto& f : levels_) n += f->capacity();
    return n;
  }
  size_t memory_bytes() const {
    size_t n = 0;
    for (const auto& f : levels_) n += f->memory_bytes();
    return n;
  }
  double load_factor() const {
    uint64_t cap = capacity();
    return cap ? static_cast<double>(size()) / static_cast<double>(cap)
               : 0.0;
  }
  /// Occupancy of the deepest level — the number maintain() watches.
  double deepest_load() const { return levels_.back()->load_factor(); }

  /// Attach the owning store's metrics bundle (nullptr = standalone shard,
  /// all hooks no-op).  The bundle outlives the shard (both are owned by
  /// the store; the bundle is heap-allocated so store moves keep the
  /// pointer stable).
  void set_metrics(obs::store_metrics* m) { metrics_ = m; }

  util::op_stats::snapshot stats() const { return stats_.read(); }
  void reset_stats() {
    stats_.reset();
    // Keep the growth trigger's failure delta anchored to the new window:
    // a stale baseline would underflow `failures - failures_at_growth_`
    // and force-grow the shard on every maintenance pass.
    failures_at_growth_ = 0;
  }

 private:
  /// A level that reached its provisioned item budget; inserts skip it in
  /// favour of deeper children (the only routing signal backends like the
  /// blocked Bloom — whose inserts never refuse — can give the cascade).
  static bool level_saturated(const any_filter& f) {
    return f.size() >= f.capacity();
  }

  /// Credit `instances` insert instances to the overflow levels (answered
  /// anywhere below the base filter).
  void note_overflow(uint64_t instances) const {
    if (metrics_ != nullptr && instances != 0)
      // relaxed: overflow telemetry counter; readers tolerate staleness.
      metrics_->overflow_answered.fetch_add(instances,
                                            std::memory_order_relaxed);
  }

  void note_queries(uint64_t queries, uint64_t hits) const {
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    stats_.queries.fetch_add(queries, std::memory_order_relaxed);
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    if (hits) stats_.query_hits.fetch_add(hits, std::memory_order_relaxed);
  }

  bool cascade_insert(uint64_t key, uint64_t count) {
    const size_t deepest = levels_.size() - 1;
    // Membership backends answer an insert the moment any level answers
    // the key: pushing another copy of an already-answered hot key deeper
    // would burn child slots (and, via the failure trigger, grow the
    // cascade) without changing a single query result.  Counting backends
    // must land every instance, so they take the strict placement walk.
    const bool membership = !levels_.front()->supports_counting();
    for (size_t l = 0; l <= deepest; ++l) {
      any_filter& f = *levels_[l];
      if ((l == deepest || !level_saturated(f)) && f.insert(key, count)) {
        if (l > 0) note_overflow(count);
        return true;
      }
      if (membership && f.contains(key)) {
        if (l > 0) note_overflow(count);
        return true;
      }
    }
    return false;
  }

  bool cascade_contains(uint64_t key) const {
    for (const auto& f : levels_)
      if (f->contains(key)) return true;
    return false;
  }

  /// Shared native-bulk insert core: §5.4 count-compression in front of
  /// the backend call, cascade-aware (a depth-1 cascade degenerates to one
  /// native bulk call).  Counts N inserts (+ failures) in the stats; the
  /// caller decides whether the batch counts as a drain.
  uint64_t bulk_insert_keys(std::span<const uint64_t> keys) {
    const uint64_t n = keys.size();
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    stats_.inserts.fetch_add(n, std::memory_order_relaxed);
    uint64_t ok = cascade_bulk_insert(keys);
    // relaxed: op_stats counter; read() snapshots tolerate staleness.
    if (ok < n) stats_.insert_failures.fetch_add(n - ok,
                                                 std::memory_order_relaxed);
    return ok;
  }

  /// §5.4 sort + reduce of a slice into (key, count) pairs; returns false
  /// (pairs untouched) when the slice turns out duplicate-free.
  static bool compress_slice(std::span<const uint64_t> keys,
                             std::vector<uint64_t>& ck,
                             std::vector<uint64_t>& cc) {
    std::vector<uint64_t> sorted(keys.begin(), keys.end());
    par::radix_sort(sorted);
    auto reduced = par::reduce_by_key(sorted);
    if (reduced.keys.size() == keys.size()) return false;
    ck = std::move(reduced.keys);
    cc = std::move(reduced.counts);
    return true;
  }

  /// Cascade bulk insert: the slice falls through level by level.  Each
  /// usable level takes a native bulk (or counted) insert; whatever it
  /// refuses is carried to the next level.  Backends report *how many*
  /// instances landed, not *which* — so for membership backends the
  /// refused remainder is recovered by membership: a key the level now
  /// answers is done (placed, or aliased onto an existing fingerprint —
  /// either way the filter answers it), a key it does not answer falls
  /// through.  Saturated levels are not inserted into but still filter the
  /// slice, so hot keys they already answer never leak copies into
  /// children.  Counting backends cannot use membership attribution (a
  /// refused instance recovered "by membership" would silently drop its
  /// count), so their batch targets a single level — the shallowest with
  /// budget headroom, else the deepest — with strict placement accounting;
  /// refusals surface as failures and trigger growth instead of risking
  /// count loss.
  /// Membership is read with one contains_each per level, the backend's
  /// batch probe, not a point lookup (and its locks) per key.
  uint64_t cascade_bulk_insert(std::span<const uint64_t> keys) {
    const uint64_t n = keys.size();
    // Compress once in front of the walk for backends without native
    // dedup; native-dedup backends re-dedup each level's slice for free
    // (the §5.4 adaptive rule: a duplicate-free batch, per the sampling
    // probe, gains nothing from a store-level sort).
    std::vector<uint64_t> ck, cc;
    bool counted = false;
    if (n >= kCompressMin && !levels_.front()->native_batch_dedup() &&
        par::sample_has_duplicates(keys))
      counted = compress_slice(keys, ck, cc);
    const size_t deepest = levels_.size() - 1;

    if (levels_.front()->supports_counting()) {
      // Counting cascades size the headroom probe by *distinct* keys: a
      // duplicate-heavy slice collapses into its distinct count (§5.4),
      // and raw sizing would strand shallow capacity under exactly the
      // skew that built the cascade.  Depth-1 counting stores keep the
      // native fast path (their bulk machinery dedups internally).
      if (!counted && deepest > 0 && n >= kCompressMin &&
          par::sample_has_duplicates(keys))
        counted = compress_slice(keys, ck, cc);
      std::span<const uint64_t> k =
          counted ? std::span<const uint64_t>(ck) : keys;
      // Shallowest level with conservative headroom for the whole slice
      // (distinct keys can only collapse into fewer slots, never more);
      // when none has room the deepest takes it and refusals surface
      // honestly.  A mere not-yet-saturated check would let a chunk
      // larger than the level's remaining slack hard-fill it and drop the
      // refused counts while an empty child sat idle.
      size_t target = deepest;
      for (size_t l = 0; l <= deepest; ++l)
        if (levels_[l]->size() + k.size() <= levels_[l]->capacity()) {
          target = l;
          break;
        }
      uint64_t got = counted ? levels_[target]->insert_counted(ck, cc)
                             : levels_[target]->insert_bulk(keys);
      if (target > 0) note_overflow(got);
      return got;
    }

    std::span<const uint64_t> cur_k = counted ? std::span<const uint64_t>(ck)
                                              : keys;
    std::span<const uint64_t> cur_c = counted ? std::span<const uint64_t>(cc)
                                              : std::span<const uint64_t>();

    std::vector<uint64_t> hold_k, hold_c;  // backing for cur after level 0
    std::vector<uint64_t> rem_k, rem_c;    // remainder being built
    std::vector<uint8_t> hit;              // a level's answers, reused
    uint64_t unanswered = n;
    for (size_t l = 0; l <= deepest && !cur_k.empty(); ++l) {
      any_filter& f = *levels_[l];
      const bool last = l == deepest;
      // Loop invariant: `unanswered` is exactly the instance total of the
      // current slice (n at entry — compression preserves instances — and
      // each fall-through subtracts what the level answered).
      const uint64_t want = unanswered;
      uint64_t got = 0;
      if (last || !level_saturated(f))
        got = counted ? f.insert_counted(cur_k, cur_c) : f.insert_bulk(cur_k);
      if (got >= want) {
        unanswered -= want;
        if (l > 0) note_overflow(want);
        break;
      }
      if (last) {
        // Bottom of the cascade: credit what the level answers (placed or
        // aliased, same as the fall-through rule) — only keys the whole
        // cascade cannot answer are real refusals.
        hit.resize(cur_k.size());
        f.contains_each(cur_k, hit);
        uint64_t answered = 0;
        for (size_t i = 0; i < cur_k.size(); ++i)
          if (hit[i]) answered += counted ? cur_c[i] : 1;
        uint64_t credit = answered > got ? answered : got;
        unanswered -= credit;
        if (l > 0) note_overflow(credit);
        break;
      }
      rem_k.clear();
      rem_c.clear();
      hit.resize(cur_k.size());
      f.contains_each(cur_k, hit);
      uint64_t still = 0;
      for (size_t i = 0; i < cur_k.size(); ++i) {
        if (hit[i]) continue;  // answered by this level
        rem_k.push_back(cur_k[i]);
        if (counted) rem_c.push_back(cur_c[i]);
        still += counted ? cur_c[i] : 1;
      }
      unanswered -= want - still;
      if (l > 0) note_overflow(want - still);
      hold_k.swap(rem_k);
      hold_c.swap(rem_c);
      cur_k = hold_k;
      cur_c = hold_c;
    }
    return n - unanswered;
  }

  /// Bulk erase over the cascade: per level, the remainder is partitioned
  /// by membership — the occurrences a level answers are erased there with
  /// one native erase_bulk call (first level that holds the key wins, and
  /// for btcf one writer lock per level instead of one per key), the rest
  /// fall through.  Attribution is per *key*: duplicate occurrences beyond
  /// a level's stored copies are charged to that level rather than retried
  /// deeper — the same membership-attribution rule the bulk insert path
  /// documents, and it can only under-count, never double-erase.
  uint64_t bulk_erase_keys(std::span<const uint64_t> keys) {
    if (levels_.size() == 1) return levels_.front()->erase_bulk(keys);
    uint64_t ok = 0;
    std::vector<uint64_t> mine, hold, rest;
    std::vector<uint8_t> hit;  // a level's answers, reused
    std::span<const uint64_t> cur = keys;
    for (size_t l = 0; l < levels_.size() && !cur.empty(); ++l) {
      any_filter& f = *levels_[l];
      if (l + 1 == levels_.size()) {
        // Deepest level: whatever it cannot erase is a real miss.
        ok += f.erase_bulk(cur);
        break;
      }
      mine.clear();
      rest.clear();
      hit.resize(cur.size());
      f.contains_each(cur, hit);
      for (size_t i = 0; i < cur.size(); ++i)
        (hit[i] ? mine : rest).push_back(cur[i]);
      if (!mine.empty()) ok += f.erase_bulk(mine);
      hold.swap(rest);
      cur = hold;
    }
    return ok;
  }

  static void tally(uint64_t ok, uint64_t n, uint64_t& hit, uint64_t& miss) {
    hit += ok;
    miss += n - ok;
  }

  std::vector<std::unique_ptr<any_filter>> levels_;
  obs::store_metrics* metrics_ = nullptr;
  uint64_t failures_at_growth_ = 0;
  mutable std::mutex queue_mu_;
  std::vector<op> queue_;
  mutable util::op_stats stats_;
};

}  // namespace gf::store
