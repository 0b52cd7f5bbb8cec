// The sharded concurrent filter store.
//
// Partitions the 64-bit key space across N shards and routes operations by
// the *high bits* of a dedicated routing hash (fast_range over
// mix64_seeded).  Routing entropy is therefore disjoint from every
// backend's fingerprint entropy — the GQF fingerprints low murmur64 bits,
// the TCF mixes murmur64/mix64_b — so per-shard false-positive behavior is
// identical to a standalone filter and no fingerprint bits are "spent" on
// routing.
//
// Four operation tiers, mirroring the paper's point/bulk split:
//   * Point ops     — route to the owning shard, delegate to its backend's
//                     thread-safe ops.  Any number of caller threads.
//   * Async batched — enqueue_*() appends to per-shard queues; flush()
//                     drains all queues with one logical thread per shard
//                     over gf::gpu::thread_pool, the paper's
//                     one-thread-per-region bulk discipline (§5.3).
//   * Bulk          — insert_bulk(), insert_counted(), erase_bulk() take
//                     key spans, partition them by shard id with one
//                     serial stable counting sort on the caller (one
//                     histogram, one prefix scan, one scatter — shard ids
//                     are tiny keys, so a full radix sort would be wasted
//                     work, and a pool launch costs more than the pass up
//                     to 8192 keys), and apply each non-empty slice
//                     shard-parallel through the shard's span entry points
//                     (store/shard.h), which the async tier's runs share.
//                     group() hands the same partition to a caller (the
//                     wire server splits a batch between reactors with
//                     it).  The wire server and WAL replay mutate through
//                     this tier only.
//   * Per-key reads — contains_each()/count_each() answer a batch key by
//                     key: at most one pool launch, each range grouped by
//                     shard, one batched backend probe per group and
//                     cascade level.  They are the store's only batched
//                     read (apply()'s query runs call shard::contains_each
//                     too), and the backend probes are serial: a read
//                     reaches the pool only through probe_each() or, for
//                     flush()'s query runs, per_shard().
//
// Skew relief: routing is static, so a hot shard cannot shed load to its
// neighbours — and filters cannot enumerate their keys, so it cannot be
// rehashed either.  maintain() instead *grows* pressured shards in place
// by attaching geometrically-sized overflow children (store/shard.h);
// reports expose cascade depth so sustained skew stays visible.
//
// Backends are runtime-selected per store (store/any_filter.h); whole-store
// persistence lives in store/store_io.h.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gpu/launch.h"
#include "gpu/thread_pool.h"
#include "obs/clock.h"
#include "obs/store_metrics.h"
#include "store/any_filter.h"
#include "store/batch.h"
#include "store/shard.h"
#include "util/counters.h"
#include "util/hash.h"

namespace gf::store {

struct store_config {
  backend_kind backend = backend_kind::tcf;
  uint32_t num_shards = 4;
  uint64_t capacity = uint64_t{1} << 20;  ///< total item budget, all shards
};

/// Shards are capped so a store header can never demand an absurd
/// allocation (store_io.h validates against this on load).
inline constexpr uint32_t kMaxShards = 1u << 14;

class filter_store {
 public:
  explicit filter_store(store_config cfg) : cfg_(cfg) {
    validate_config(cfg_);
    shards_.reserve(cfg_.num_shards);
    for (uint32_t s = 0; s < cfg_.num_shards; ++s)
      shards_.push_back(
          std::make_unique<shard>(cfg_.backend, shard_capacity(cfg_)));
    attach_metrics();
  }

  /// Assemble a store around restored shards (store_io.h's load path).
  filter_store(store_config cfg, std::vector<std::unique_ptr<shard>> shards)
      : cfg_(cfg), shards_(std::move(shards)) {
    validate_config(cfg_);
    if (shards_.size() != cfg_.num_shards)
      throw std::runtime_error("gf: store shard count mismatch");
    attach_metrics();
  }

  static uint64_t shard_capacity(const store_config& cfg) {
    return (cfg.capacity + cfg.num_shards - 1) / cfg.num_shards;
  }

  // -- Routing ---------------------------------------------------------------

  /// Owning shard of a key: the high bits of an independent routing hash
  /// (fast_range is a high-bits partition of the 64-bit hash space).
  uint32_t shard_of(uint64_t key) const {
    return static_cast<uint32_t>(
        util::fast_range(route_hash(key), shards_.size()));
  }

  // -- Point API (thread-safe) ----------------------------------------------

  bool insert(uint64_t key, uint64_t count = 1) {
    util::counters_scope cs(metrics_->gf_counters);
    return shards_[shard_of(key)]->insert(key, count);
  }
  bool contains(uint64_t key) const {
    util::counters_scope cs(metrics_->gf_counters);
    return shards_[shard_of(key)]->contains(key);
  }
  uint64_t count(uint64_t key) const {
    util::counters_scope cs(metrics_->gf_counters);
    return shards_[shard_of(key)]->count(key);
  }
  bool erase(uint64_t key) {
    util::counters_scope cs(metrics_->gf_counters);
    return shards_[shard_of(key)]->erase(key);
  }

  // -- Async batched API -----------------------------------------------------

  void enqueue(const op& o) { shards_[shard_of(o.key)]->enqueue(o); }
  void enqueue_insert(uint64_t key, uint64_t count = 1) {
    enqueue(make_insert(key, count));
  }
  void enqueue_erase(uint64_t key) { enqueue(make_erase(key)); }
  void enqueue_query(uint64_t key) { enqueue(make_query(key)); }

  uint64_t pending() const {
    uint64_t n = 0;
    for (const auto& s : shards_) n += s->pending();
    return n;
  }

  /// Drain every shard's queue, one logical thread per shard.
  batch_result flush() {
    return per_shard<batch_result>(metrics_->drain_shard_ns, {},
                                   [](shard& sh, uint64_t) {
                                     return sh.drain();
                                   });
  }

  /// Partition one caller-owned batch by shard and apply it shard-parallel
  /// (skips the queue mutexes; ops for the same shard keep batch order).
  batch_result apply(std::span<const op> ops) {
    if (ops.empty()) return {};
    std::vector<op> parted(ops.size());
    auto offsets = partition_by_shard(
        ops.size(), [&](uint64_t i) { return ops[i].key; },
        [&](uint64_t i, uint64_t p) { parted[p] = ops[i]; });
    return per_shard<batch_result>(
        metrics_->apply_shard_ns, offsets, [&](shard& sh, uint64_t s) {
          return sh.apply(slice(parted, offsets, s));
        });
  }

  // -- Bulk API (sort-then-apply, paper §4.2/§5.3) ---------------------------
  // Key spans, counting-sorted into per-shard slices and applied with one
  // logical thread per shard.  Host-phased: no concurrent writers.

  /// Native bulk insert, count-compressed; returns the keys inserted.
  uint64_t insert_bulk(std::span<const uint64_t> keys) {
    return per_slice(metrics_->bulk_insert_shard_ns, keys, {},
                     [](shard& sh, auto k, auto) { return sh.insert_span(k); });
  }

  /// keys[i] gains counts[i] instances: the state, stats and result of
  /// apply() over the matching insert ops.  Returns the pairs that landed.
  uint64_t insert_counted(std::span<const uint64_t> keys,
                          std::span<const uint64_t> counts) {
    if (counts.size() != keys.size())
      throw std::invalid_argument("gf: insert_counted keys/counts mismatch");
    return per_slice(metrics_->apply_shard_ns, keys, counts,
                     [](shard& sh, auto k, auto c) {
                       return sh.insert_counted_span(k, c);
                     });
  }

  /// One instance off per key occurrence: the state, stats and result of
  /// apply() over the matching erase ops.  Returns the erases that landed.
  uint64_t erase_bulk(std::span<const uint64_t> keys) {
    return per_slice(metrics_->apply_shard_ns, keys, {},
                     [](shard& sh, auto k, auto) { return sh.erase_span(k); });
  }

  /// A batch grouped by owning shard: shard s holds positions
  /// [offsets[s], offsets[s + 1]), in batch order within each shard.
  struct grouped {
    std::vector<uint64_t> keys;
    std::vector<uint64_t> counts;   ///< empty unless counts were given
    std::vector<uint64_t> index;    ///< index[p]: keys[p]'s batch position
    std::vector<uint64_t> offsets;  ///< num_shards() + 1 entries
  };

  /// The bulk tier's shard partition of keys (and counts, when given),
  /// run on the caller.  A caller that splits a batch between owners of
  /// contiguous shard ranges hands each one its run of this grouping.
  grouped group(std::span<const uint64_t> keys,
                std::span<const uint64_t> counts = {}) const {
    if (!counts.empty() && counts.size() != keys.size())
      throw std::invalid_argument("gf: group keys/counts mismatch");
    grouped g;
    g.keys.resize(keys.size());
    g.counts.resize(counts.size());
    g.index.resize(keys.size());
    g.offsets = partition_by_shard(
        keys.size(), [&](uint64_t i) { return keys[i]; },
        [&](uint64_t i, uint64_t p) {
          g.keys[p] = keys[i];
          if (!counts.empty()) g.counts[p] = counts[i];
          g.index[p] = i;
        });
    return g;
  }

  // -- Maintenance -----------------------------------------------------------

  /// Outcome of one maintenance pass (report/telemetry).
  struct maintain_result {
    uint32_t shards_grown = 0;  ///< shards that attached an overflow child
    uint32_t max_depth = 1;     ///< deepest cascade after the pass
    uint32_t total_levels = 0;  ///< sum of cascade depths across shards
  };

  /// Walk every shard and attach overflow children where the pressure
  /// thresholds are crossed (store/shard.h).  Host-phased like the bulk
  /// APIs: quiesce writers first — the intended cadence is between batches
  /// or drain rounds (examples/store_server.cpp runs it once per round).
  maintain_result maintain(const maintain_config& cfg = {}) {
    return maintain_range(0, num_shards(), cfg);
  }

  /// Maintenance over the contiguous shard slice [begin, end) only.  A
  /// multi-reactor server (net/server.h) maintains each reactor's owned
  /// slice independently, so one reactor's pass never touches shards
  /// another reactor is writing.  Same host-phasing contract as maintain(),
  /// scoped to the slice: quiesce the slice's writer first.
  maintain_result maintain_range(uint32_t begin, uint32_t end,
                                 const maintain_config& cfg = {}) {
    const uint64_t t0 = obs::now_ns();
    if (end > shards_.size()) end = static_cast<uint32_t>(shards_.size());
    maintain_result r;
    for (uint32_t i = begin; i < end; ++i) {
      shard& s = *shards_[i];
      if (s.maintain(cfg)) ++r.shards_grown;
      uint32_t depth = s.level_count();
      r.total_levels += depth;
      if (depth > r.max_depth) r.max_depth = depth;
    }
    metrics_->maintain_ns.record(obs::now_ns() - t0);
    return r;
  }

  // -- Per-key read tier (host-phased) ---------------------------------------

  /// out[i] = contains(keys[i]) as 0/1, with the same per-shard stats.
  /// One launch_ranges over the batch (one range on the caller at or below
  /// gpu::kLaunchFloor keys); each range is grouped by owning shard and
  /// every group is one shard::contains_each call, so each level answers
  /// through its backend's batched probe.  Host-phased: no concurrent
  /// writers.  Throws std::invalid_argument unless out.size() == keys.size().
  void contains_each(std::span<const uint64_t> keys,
                     std::span<uint8_t> out) const {
    probe_each(keys, out,
               [](const shard& s, std::span<const uint64_t> k,
                  std::span<uint8_t> o) { s.contains_each(k, o); });
  }

  /// out[i] = count(keys[i]); same grouping and launch as contains_each().
  void count_each(std::span<const uint64_t> keys,
                  std::span<uint64_t> out) const {
    probe_each(keys, out,
               [](const shard& s, std::span<const uint64_t> k,
                  std::span<uint64_t> o) { s.count_each(k, o); });
  }

  /// Number of batch keys the store answers positively (contains_each).
  uint64_t count_contained(std::span<const uint64_t> keys) const {
    std::vector<uint8_t> hit(keys.size());
    contains_each(keys, hit);
    uint64_t found = 0;
    for (uint8_t h : hit) found += h;
    return found;
  }

  // -- Introspection ---------------------------------------------------------

  const store_config& config() const { return cfg_; }

  /// This store's observability bundle (bulk-tier/maintenance histograms,
  /// overflow counter, scoped GF_COUNT sink).  Always present; stable
  /// across store moves (heap-owned).
  obs::store_metrics& metrics() const { return *metrics_; }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  shard& shard_at(uint32_t i) { return *shards_[i]; }
  const shard& shard_at(uint32_t i) const { return *shards_[i]; }

  uint64_t size() const {
    uint64_t n = 0;
    for (const auto& s : shards_) n += s->size();
    return n;
  }
  size_t memory_bytes() const {
    size_t n = 0;
    for (const auto& s : shards_) n += s->memory_bytes();
    return n;
  }
  /// Item budget actually provisioned across every shard and cascade
  /// level.  Equals config().capacity (rounded up to whole shards) until
  /// maintenance grows a shard, then exceeds it.
  uint64_t provisioned_capacity() const {
    uint64_t n = 0;
    for (const auto& s : shards_) n += s->capacity();
    return n;
  }
  /// Occupancy against the *provisioned* budget — the number maintenance
  /// decisions key off.  After growth this deflates back below the
  /// pressure thresholds even though size() exceeds the nominal
  /// config().capacity.
  double load_factor() const {
    uint64_t cap = provisioned_capacity();
    return cap ? static_cast<double>(size()) / static_cast<double>(cap)
               : 0.0;
  }

  struct shard_report {
    uint32_t index = 0;
    uint64_t items = 0;         ///< live items, all cascade levels
    double load_factor = 0.0;   ///< items / provisioned budget, all levels
    uint32_t levels = 1;        ///< cascade depth (1 = base filter only)
    double deepest_load = 0.0;  ///< occupancy of the deepest level
    util::op_stats::snapshot ops;
  };

  /// Per-shard occupancy, cascade depth, and operation counts (hot-shard
  /// and skew visibility).
  std::vector<shard_report> report() const {
    std::vector<shard_report> out(shards_.size());
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      out[s].index = s;
      out[s].items = shards_[s]->size();
      out[s].load_factor = shards_[s]->load_factor();
      out[s].levels = shards_[s]->level_count();
      out[s].deepest_load = shards_[s]->deepest_load();
      out[s].ops = shards_[s]->stats();
    }
    return out;
  }

 private:
  /// Stable counting-sort partition of n elements by owning shard, on the
  /// caller: one histogram, one prefix scan, and one scatter pass in which
  /// place(i, p) moves element i to position p of the caller's output.
  /// Shard ids are recomputed in the scatter pass (a mix64 is cheaper than
  /// streaming an id array through memory).  Returns shard offsets (size
  /// num_shards + 1) into the output.
  template <class KeyAt, class Place>
  std::vector<uint64_t> partition_by_shard(uint64_t n, const KeyAt& key_at,
                                           const Place& place) const {
    std::vector<uint64_t> offsets(shards_.size() + 1, 0);
    for (uint64_t i = 0; i < n; ++i) ++offsets[shard_of(key_at(i)) + 1];
    for (size_t s = 1; s < offsets.size(); ++s) offsets[s] += offsets[s - 1];
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (uint64_t i = 0; i < n; ++i) place(i, cursor[shard_of(key_at(i))]++);
    return offsets;
  }

  /// Shard s's slice of a partitioned batch (empty for an empty one).
  template <class T>
  static std::span<const T> slice(const std::vector<T>& parted,
                                  const std::vector<uint64_t>& offsets,
                                  uint64_t s) {
    if (parted.empty()) return {};
    return std::span<const T>(parted.data() + offsets[s],
                              offsets[s + 1] - offsets[s]);
  }

  /// The bulk tier's launch: one logical thread per shard over the pool
  /// (§5.3's one-thread-per-region discipline), each running fn(shard, s)
  /// inside this store's counters scope, timed into lane s of `hist`.
  /// Given a partition's offsets, only the shards whose slice is non-empty
  /// run and record; with none, every shard does.  Returns the sum of fn's
  /// per-shard results.
  template <class R, class Fn>
  R per_shard(obs::latency_histogram& hist, std::span<const uint64_t> offsets,
              const Fn& fn) {
    std::vector<uint32_t> run;
    for (uint32_t s = 0; s < shards_.size(); ++s)
      if (offsets.empty() || offsets[s] != offsets[s + 1]) run.push_back(s);
    std::vector<R> out(run.size());
    gpu::launch_threads(
        run.size(),
        [&](uint64_t i) {
          util::counters_scope cs(metrics_->gf_counters);
          const uint64_t t0 = obs::now_ns();
          out[i] = fn(*shards_[run[i]], run[i]);
          hist.record_lane(run[i], obs::now_ns() - t0);
        },
        /*grain=*/1);
    R sum{};
    for (const R& r : out) sum += r;
    return sum;
  }

  /// Partition keys (and counts, when given) by shard and sum
  /// fn(shard, key slice, count slice) over per_shard().
  template <class Fn>
  uint64_t per_slice(obs::latency_histogram& hist,
                     std::span<const uint64_t> keys,
                     std::span<const uint64_t> counts, const Fn& fn) {
    if (keys.empty()) return 0;
    std::vector<uint64_t> pk(keys.size()), pc(counts.size());
    auto offsets = partition_by_shard(
        keys.size(), [&](uint64_t i) { return keys[i]; },
        [&](uint64_t i, uint64_t p) {
          pk[p] = keys[i];
          if (!pc.empty()) pc[p] = counts[i];
        });
    return per_shard<uint64_t>(hist, offsets, [&](shard& sh, uint64_t s) {
      return fn(sh, slice(pk, offsets, s), slice(pc, offsets, s));
    });
  }

  /// Runs contains_each()/count_each() over launch_ranges(keys.size()).
  template <class T, class Probe>
  void probe_each(std::span<const uint64_t> keys, std::span<T> out,
                  const Probe& probe) const {
    if (out.size() != keys.size())
      throw std::invalid_argument("gf: per-key read keys/out mismatch");
    gpu::launch_ranges(keys.size(), [&](unsigned, uint64_t b, uint64_t e) {
      probe_range(keys.subspan(b, e - b), out.subspan(b, e - b), probe);
    });
  }

  /// Group one key range by owning shard, probe each group with one shard
  /// call, and scatter the answers back.
  template <class T, class Probe>
  void probe_range(std::span<const uint64_t> keys, std::span<T> out,
                   const Probe& probe) const {
    util::counters_scope cs(metrics_->gf_counters);
    if (shards_.size() == 1) {
      probe(*shards_[0], keys, out);
      return;
    }
    const grouped g = group(keys);
    std::vector<T> res(keys.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      const auto run = slice(g.keys, g.offsets, s);
      if (!run.empty())
        probe(*shards_[s], run,
              std::span<T>(res).subspan(g.offsets[s], run.size()));
    }
    for (size_t p = 0; p < res.size(); ++p) out[g.index[p]] = res[p];
  }

  static void validate_config(const store_config& cfg) {
    if (cfg.num_shards == 0 || cfg.num_shards > kMaxShards)
      throw std::runtime_error("gf: store shard count out of range (1.." +
                               std::to_string(kMaxShards) + ")");
  }

  /// Routing hash: seeded and independent of every backend's key hashing,
  /// so sharding neither biases nor correlates per-shard fingerprints.
  static uint64_t route_hash(uint64_t key) {
    return util::mix64_seeded(key, kRouteSeed);
  }
  static constexpr uint64_t kRouteSeed = 0x5348'4152'4453ull;  // "SHARDS"

  /// Allocate the metrics bundle (lane count = pool width, the bulk tier's
  /// writer count) and hand every shard a pointer to it.  Both ctors end
  /// here, so restored stores are instrumented identically to fresh ones.
  void attach_metrics() {
    metrics_ =
        std::make_unique<obs::store_metrics>(gpu::query_pool_size() + 1);
    for (auto& s : shards_) s->set_metrics(metrics_.get());
  }

  store_config cfg_;
  std::vector<std::unique_ptr<shard>> shards_;
  std::unique_ptr<obs::store_metrics> metrics_;
};

}  // namespace gf::store
