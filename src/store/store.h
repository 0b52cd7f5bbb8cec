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
//   * Bulk build    — insert_bulk() partitions the batch by shard id with
//                     a single-allocation parallel counting sort (per-
//                     worker histograms + one stable scatter pass — shard
//                     ids are tiny keys, so a full radix sort and its
//                     ping-pong buffers would be wasted work), then
//                     bulk-inserts each contiguous slice shard-parallel
//                     through the backend's native bulk ops with §5.4
//                     count-compression in front (store/shard.h).
//   * Per-key reads — contains_each()/count_each() answer a batch key by
//                     key: grouped by shard, one batched backend probe per
//                     group and cascade level, at most one pool launch.
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

#include <atomic>
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
    std::vector<batch_result> per(shards_.size());
    gpu::launch_threads(
        shards_.size(),
        [&](uint64_t s) {
          util::counters_scope cs(metrics_->gf_counters);
          const uint64_t t0 = obs::now_ns();
          per[s] = shards_[s]->drain();
          metrics_->drain_shard_ns.record_lane(static_cast<unsigned>(s),
                                               obs::now_ns() - t0);
        },
        /*grain=*/1);
    batch_result total;
    for (const batch_result& r : per) total.merge(r);
    return total;
  }

  /// Partition one caller-owned batch by shard and apply it shard-parallel
  /// (skips the queue mutexes; ops for the same shard keep batch order).
  batch_result apply(std::span<const op> ops) {
    if (ops.empty()) return {};
    std::vector<op> parted(ops.size());
    auto offsets = partition_by_shard<op>(
        ops, parted, [](const op& o) { return o.key; });
    std::vector<batch_result> per(shards_.size());
    gpu::launch_threads(
        shards_.size(),
        [&](uint64_t s) {
          util::counters_scope cs(metrics_->gf_counters);
          const uint64_t t0 = obs::now_ns();
          per[s] = shards_[s]->apply(
              std::span<const op>(parted.data() + offsets[s],
                                  offsets[s + 1] - offsets[s]));
          metrics_->apply_shard_ns.record_lane(static_cast<unsigned>(s),
                                               obs::now_ns() - t0);
        },
        /*grain=*/1);
    batch_result total;
    for (const batch_result& r : per) total.merge(r);
    return total;
  }

  // -- Bulk-build API (sort-then-insert, paper §4.2/§5.3) --------------------

  /// Counting-sort `keys` into contiguous per-shard slices, then bulk-
  /// insert each slice with one logical thread per shard (native backend
  /// bulk ops, count-compressed).  Returns the number of keys successfully
  /// inserted.  Host-phased: do not run concurrently with other writers.
  uint64_t insert_bulk(std::span<const uint64_t> keys) {
    const uint64_t n = keys.size();
    if (n == 0) return 0;
    std::vector<uint64_t> parted(n);
    auto offsets = partition_by_shard<uint64_t>(
        keys, parted, [](uint64_t k) { return k; });
    std::atomic<uint64_t> ok{0};
    gpu::launch_threads(
        shards_.size(),
        [&](uint64_t s) {
          util::counters_scope cs(metrics_->gf_counters);
          const uint64_t t0 = obs::now_ns();
          std::span<const uint64_t> slice(parted.data() + offsets[s],
                                          offsets[s + 1] - offsets[s]);
          // relaxed: worker-private tally; the launch join publishes it to the reader.
          ok.fetch_add(shards_[s]->insert_span(slice),
                       std::memory_order_relaxed);
          metrics_->bulk_insert_shard_ns.record_lane(static_cast<unsigned>(s),
                                                     obs::now_ns() - t0);
        },
        /*grain=*/1);
    return ok.load();
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

  /// Where a per-key read batch runs.
  enum class launch {
    pool,    ///< one pool launch; each worker probes a contiguous key range
    caller,  ///< serially on the calling thread, no pool launch
  };

  /// out[i] = contains(keys[i]) as 0/1, with the same per-shard stats.
  /// Each key range is grouped by owning shard and every group is one
  /// shard::contains_each call, so each level answers through its
  /// backend's batched probe.  At most one pool launch (none with
  /// launch::caller — the multi-reactor server probes the slice it owns on
  /// its own event loop).  Host-phased: no concurrent writers.
  void contains_each(std::span<const uint64_t> keys, std::span<uint8_t> out,
                     launch where = launch::pool) const {
    probe_each(keys, out, where,
               [](const shard& s, std::span<const uint64_t> k,
                  std::span<uint8_t> o) { s.contains_each(k, o); });
  }

  /// out[i] = count(keys[i]); same grouping and launch rule as
  /// contains_each().
  void count_each(std::span<const uint64_t> keys, std::span<uint64_t> out,
                  launch where = launch::pool) const {
    probe_each(keys, out, where,
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
  /// Stable parallel counting-sort partition of `in` into `out` by owning
  /// shard: per-worker histograms, an exclusive scan, and one scatter pass
  /// over identical static ranges.  `out` is the only O(n) allocation —
  /// shard ids are recomputed in the scatter pass (a mix64 is cheaper than
  /// streaming an id array through memory).  Returns shard offsets
  /// (size num_shards + 1) into `out`.
  template <class T, class KeyOf>
  std::vector<uint64_t> partition_by_shard(std::span<const T> in,
                                           std::vector<T>& out,
                                           KeyOf&& key_of) const {
    const uint64_t n = in.size();
    const uint64_t m = shards_.size();
    auto& pool = gpu::thread_pool::instance();
    const unsigned workers = pool.size();
    // Histogram rows are padded to a cache line so scatter cursors of
    // neighbouring workers never false-share.
    const uint64_t stride = (m + 7) & ~uint64_t{7};
    std::vector<uint64_t> hist(workers * stride, 0);
    pool.parallel_ranges(n, [&](unsigned w, uint64_t begin, uint64_t end) {
      uint64_t* row = &hist[w * stride];
      for (uint64_t i = begin; i < end; ++i)
        ++row[shard_of(key_of(in[i]))];
    });
    // Exclusive scan in (shard, worker) order: worker w's slice of shard s
    // lands after every earlier worker's slice of s — stable overall.
    std::vector<uint64_t> offsets(m + 1);
    uint64_t running = 0;
    for (uint64_t s = 0; s < m; ++s) {
      offsets[s] = running;
      for (unsigned w = 0; w < workers; ++w) {
        uint64_t c = hist[w * stride + s];
        hist[w * stride + s] = running;
        running += c;
      }
    }
    offsets[m] = running;
    // parallel_ranges partitions [0, n) identically both times, so each
    // worker scatters exactly the elements it counted.
    pool.parallel_ranges(n, [&](unsigned w, uint64_t begin, uint64_t end) {
      uint64_t* cursor = &hist[w * stride];
      for (uint64_t i = begin; i < end; ++i)
        out[cursor[shard_of(key_of(in[i]))]++] = in[i];
    });
    return offsets;
  }

  /// Runs contains_each()/count_each(): either one range on the caller
  /// or one static range per pool worker.
  template <class T, class Probe>
  void probe_each(std::span<const uint64_t> keys, std::span<T> out,
                  launch where, const Probe& probe) const {
    if (where == launch::caller) {
      probe_range(keys, out, probe);
      return;
    }
    gpu::launch_ranges(keys.size(), [&](unsigned, uint64_t b, uint64_t e) {
      probe_range(keys.subspan(b, e - b), out.subspan(b, e - b), probe);
    });
  }

  /// Group one key range by owning shard (a serial counting sort), probe
  /// each group with one shard call, and scatter the answers back.
  template <class T, class Probe>
  void probe_range(std::span<const uint64_t> keys, std::span<T> out,
                   const Probe& probe) const {
    const size_t n = keys.size();
    if (n == 0) return;
    util::counters_scope cs(metrics_->gf_counters);
    const size_t m = shards_.size();
    if (m == 1) {
      probe(*shards_[0], keys, out);
      return;
    }
    std::vector<uint32_t> sid(n);
    std::vector<size_t> cursor(m + 1, 0);
    for (size_t i = 0; i < n; ++i) ++cursor[(sid[i] = shard_of(keys[i])) + 1];
    for (size_t s = 0; s < m; ++s) cursor[s + 1] += cursor[s];
    std::vector<uint64_t> grouped(n);
    std::vector<size_t> from(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t p = cursor[sid[i]]++;
      grouped[p] = keys[i];
      from[p] = i;
    }
    // The scatter left cursor[s] at the end of group s.
    std::vector<T> res(n);
    for (size_t s = 0, b = 0; s < m; b = cursor[s++]) {
      const size_t e = cursor[s];
      if (b < e)
        probe(*shards_[s], std::span<const uint64_t>(grouped).subspan(b, e - b),
              std::span<T>(res).subspan(b, e - b));
    }
    for (size_t p = 0; p < n; ++p) out[from[p]] = res[p];
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
