// store_scaling: sharded-store throughput as a function of shard count.
//
// For each backend, sweeps shards ∈ {1, 2, 4, 8} at each filter size and
// measures the store tiers against each other: point-routed inserts
// (thread-per-key through the virtual point API), the native bulk tier
// (counting-sort partition + per-shard backend bulk ops), the same bulk
// tier under a Zipf(0.99) hot-key flood (where §5.4 count-compression
// collapses duplicates), the same flood scaled past nominal capacity with
// and without maintenance (overflow cascades vs the refusal storm),
// batched async ops (enqueue + flush), and batched membership queries.  On a multi-core host the per-shard drain threads
// run truly in parallel, so throughput scales with shard count until
// shards exceed cores; on a single-core host the series stays flat (the
// sweep still validates the partitioning machinery).  Columns are shard
// counts.
//
// A last section measures the bulk TCF's per-frame cost at two fixed table
// sizes (2^16 and 2^22 slots, whatever --sizes says): 1024-key INSERT and
// ERASE frames into a table held at 60 % load.  A bulk launch covers only
// the blocks a frame touches, so the larger table may cost more per frame
// through cache misses, never through work proportional to its size; CI
// bounds the 2^22 / 2^16 ratio.  4096-key QUERY frames run through the
// hash-ahead pipeline (bulk_tcf::contains_each), timed next to a
// host-speed control.  The point TCF's rows follow: 2048-key
// frames into a table at 33 % load, at 2^16 and 2^26 slots, where CI
// bounds the 2^26 / 2^16 insert ratio (the batch pipeline keeps a frame's
// block fetches in flight, so the DRAM-sized table costs a bounded
// multiple of the cache-resident one) and the 2^16 QUERY frame against a
// host-speed control (the whole-block scan, tcf_block.h, keeps a probe
// to one SIMD compare per block).  Each point-TCF row also prints where
// its timed table sits: the block array's address mod 2 MiB and the
// AnonHugePages (KiB) of the mapping holding it, read from
// /proc/self/smaps, so a row's speed can be read against its pages.
//
// --json FILE writes one JSON object per line per measurement (plus
// derived bulk-vs-point speedups and insert-failure rates); CI gates on
// it and uploads it as an artifact.  Record:
//   bench     "store_scaling"
//   backend   tcf | gqf | blocked_bloom | bulk_tcf
//   shards    store shard count of this measurement
//   log2size  log2 of the per-shard filter capacity
//   metric    point_insert_mops, point_insert_fail_rate, bulk_insert_mops,
//             bulk_insert_fail_rate, bulk_vs_point_speedup,
//             zipf_insert_mops, zipf_insert_fail_rate,
//             zipf_overflow_maint_mops, zipf_overflow_maint_fail_rate,
//             zipf_overflow_maint_depth, zipf_overflow_nomaint_mops,
//             zipf_overflow_nomaint_fail_rate, batched_ops_mops,
//             bulk_query_mops, btcf_frame_insert_us, btcf_frame_erase_us,
//             btcf_frame128_insert_us, btcf_frame128_erase_us,
//             btcf_frame_control_us, btcf_frame_query_us,
//             tcf_frame_query_us,
//             tcf_frame_insert_us, tcf_frame_erase_us, tcf_frame_control_us,
//             tcf_frame_table_mod2m, tcf_frame_anon_huge_kb
//   value     4 decimal places: Mops/s unless the name says otherwise
//             (*_fail_rate is a fraction in [0,1], *_depth a cascade
//             level count, *_us microseconds per frame, *_mod2m bytes,
//             *_kb KiB, -1 where smaps cannot be read)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "gpu/launch.h"
#include "gpu/thread_pool.h"
#include "store/store.h"
#include "tcf/bulk_tcf.h"
#include "tcf/tcf.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/timer.h"
#include "util/zeroed_array.h"
#include "util/zipf.h"

using namespace gf;

namespace {

constexpr uint32_t kShardCounts[] = {1, 2, 4, 8};
constexpr double kZipfTheta = 0.99;

FILE* g_json = nullptr;

void emit_json(store::backend_kind backend, uint32_t shards, int log_size,
               const char* metric, double value) {
  if (!g_json) return;
  // One JSON-line per measurement through the shared writer (util/json.h)
  // — same emitter as the store's report_json, so escaping and the fixed
  // 4-digit value format CI greps for live in one place.
  util::json_writer w;
  w.object_begin()
      .field("bench", "store_scaling")
      .field("backend", store::backend_name(backend))
      .field("shards", shards)
      .field("log2size", log_size)
      .field("metric", metric)
      .field("value", value, 4)
      .object_end();
  std::fprintf(g_json, "%s\n", w.str().c_str());
}

store::filter_store make_store(store::backend_kind backend, uint32_t shards,
                               uint64_t capacity) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = shards;
  cfg.capacity = capacity;
  return store::filter_store(cfg);
}

struct metric_def {
  const char* label;  ///< table row label
  const char* json;   ///< JSON metric name
};

constexpr metric_def kMetrics[] = {
    {"point insert Mops/s", "point_insert_mops"},
    {"bulk insert Mops/s", "bulk_insert_mops"},
    {"zipf bulk insert Mops/s", "zipf_insert_mops"},
    {"zipf 2x overflow Mops/s (maint)", "zipf_overflow_maint_mops"},
    {"zipf 2x overflow Mops/s (none)", "zipf_overflow_nomaint_mops"},
    {"batched ops Mops/s", "batched_ops_mops"},
    {"bulk query Mops/s", "bulk_query_mops"},
};

/// Zipf(0.99) draws per provisioned item for the overflow columns: at 8x
/// draws the *distinct* key load lands at ~2x the store's nominal
/// capacity, so the flood cannot fit without growth.  With maintenance
/// between chunks hot shards cascade and absorb it (0 refusals); without,
/// the refusal storm the ROADMAP names is the measured outcome.
///
/// Growth must land *before* a level hard-fills: the pressure threshold is
/// set so the headroom it leaves (30% of a level's budget) exceeds the
/// distinct keys one chunk can add (~23% at 16 chunks).
constexpr uint64_t kOverflowDrawFactor = 8;
constexpr int kOverflowChunks = 16;
constexpr double kOverflowPressureLoad = 0.70;

void sweep_backend(store::backend_kind backend,
                   const bench::options& opts) {
  std::vector<std::string> cols;
  for (uint32_t s : kShardCounts)
    cols.push_back(std::to_string(s) + "-shard");

  std::printf("\n### backend: %s\n", store::backend_name(backend));
  // point_insert_mops per (log_size, shard index), filled by the point
  // metric pass and reused for the derived bulk-vs-point speedups.
  std::map<int, std::vector<double>> point_mops;
  for (const metric_def& metric : kMetrics) {
    bench::print_series_header(metric.label, cols);
    for (int log_size : opts.log_sizes) {
      uint64_t capacity = uint64_t{1} << log_size;
      uint64_t n = capacity * 70 / 100;
      auto keys = util::hashed_xorwow_items(n, 9000 + log_size);

      std::vector<double> vals;
      for (uint32_t shards : kShardCounts) {
        auto s = make_store(backend, shards, capacity);
        double mops = -1;
        if (!std::strcmp(metric.json, "point_insert_mops")) {
          uint64_t ok = 0;
          mops = bench::time_mops(n, [&] {
            std::atomic<uint64_t> landed{0};
            gpu::launch_ranges(n, [&](unsigned, uint64_t b, uint64_t e) {
              uint64_t local = 0;
              for (uint64_t i = b; i < e; ++i)
                local += s.insert(keys[i]) ? 1 : 0;
              landed.fetch_add(local, std::memory_order_relaxed);
            });
            ok = landed.load();
          });
          emit_json(backend, shards, log_size, "point_insert_fail_rate",
                    static_cast<double>(n - ok) / static_cast<double>(n));
        } else if (!std::strcmp(metric.json, "bulk_insert_mops")) {
          uint64_t ok = 0;
          mops = bench::time_mops(n, [&] { ok = s.insert_bulk(keys); });
          emit_json(backend, shards, log_size, "bulk_insert_fail_rate",
                    static_cast<double>(n - ok) / static_cast<double>(n));
        } else if (!std::strcmp(metric.json, "zipf_insert_mops")) {
          auto zipf = util::zipfian_dataset(n, kZipfTheta, 7000 + log_size);
          uint64_t ok = 0;
          mops = bench::time_mops(n, [&] { ok = s.insert_bulk(zipf); });
          emit_json(backend, shards, log_size, "zipf_insert_fail_rate",
                    static_cast<double>(n - ok) / static_cast<double>(n));
        } else if (!std::strcmp(metric.json, "zipf_overflow_maint_mops") ||
                   !std::strcmp(metric.json, "zipf_overflow_nomaint_mops")) {
          const bool maint =
              !std::strcmp(metric.json, "zipf_overflow_maint_mops");
          const uint64_t flood_n = capacity * kOverflowDrawFactor;
          auto flood =
              util::zipfian_dataset(flood_n, kZipfTheta, 8000 + log_size);
          store::maintain_config mcfg;
          mcfg.pressure_load = kOverflowPressureLoad;
          uint64_t ok = 0;
          store::filter_store::maintain_result grown;
          mops = bench::time_mops(flood_n, [&] {
            uint64_t landed = 0;
            for (int c = 0; c < kOverflowChunks; ++c) {
              size_t lo = flood_n * c / kOverflowChunks;
              size_t hi = flood_n * (c + 1) / kOverflowChunks;
              landed += s.insert_bulk(
                  std::span<const uint64_t>(flood).subspan(lo, hi - lo));
              // The final pass's telemetry is the flood's end state
              // (depth only changes inside maintain()).
              if (maint) grown = s.maintain(mcfg);
            }
            ok = landed;
          });
          emit_json(backend, shards, log_size,
                    maint ? "zipf_overflow_maint_fail_rate"
                          : "zipf_overflow_nomaint_fail_rate",
                    static_cast<double>(flood_n - ok) /
                        static_cast<double>(flood_n));
          if (maint)
            emit_json(backend, shards, log_size, "zipf_overflow_maint_depth",
                      static_cast<double>(grown.max_depth));
        } else if (!std::strcmp(metric.json, "batched_ops_mops")) {
          mops = bench::time_mops(n, [&] {
            for (uint64_t k : keys) s.enqueue_insert(k);
            s.flush();
          });
        } else {
          s.insert_bulk(keys);
          mops = bench::best_mops(3, n, [&] { s.count_contained(keys); });
        }
        emit_json(backend, shards, log_size, metric.json, mops);
        vals.push_back(mops);
      }
      bench::print_series_row(log_size, vals);

      if (!std::strcmp(metric.json, "point_insert_mops"))
        point_mops[log_size] = vals;

      // Derived: native-bulk speedup over the point-routed series already
      // measured above (the acceptance series for the bulk tier; same
      // keys, same store configuration, same JSON artifact).
      if (!std::strcmp(metric.json, "bulk_insert_mops")) {
        const auto& point = point_mops[log_size];
        for (size_t c = 0; c < vals.size() && c < point.size(); ++c)
          if (point[c] > 0)
            emit_json(backend, kShardCounts[c], log_size,
                      "bulk_vs_point_speedup", vals[c] / point[c]);
      }
    }
  }
}

constexpr uint64_t kFrameKeys = 1024;
constexpr uint64_t kBtcfQueryKeys = 4096;
/// One store shard's slice of a 1024-key frame on an 8-shard store.
constexpr uint64_t kShardSliceKeys = 128;
constexpr int kFrameSizes[] = {16, 22};
constexpr int kFramesTimed = 256;

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// A host-speed control timed next to each frame: a dependent chain of
/// 1024 murmur64 steps, which no filter code change can move.  A frame's
/// cost over the control's is a ratio one process measures on one core,
/// so a slow or shared host moves both sides.
double control_us() {
  static volatile uint64_t sink = 0;
  util::wall_timer t;
  uint64_t h = sink;
  for (int i = 0; i < 1024; ++i) h = util::murmur64(h);
  sink = h;
  return t.seconds() * 1e6;
}

/// Keeps the timed QUERY frames' answers live.
volatile uint64_t g_query_hits = 0;

/// Query frames alternating keys[(i / 2 * 7919) % stored] with
/// never-inserted keys, so half of them probe both candidate blocks (and
/// the backing table) to answer no.
std::vector<uint64_t> query_frames(const std::vector<uint64_t>& keys,
                                   uint64_t stored, uint64_t n,
                                   uint64_t absent_seed) {
  const auto absent = util::hashed_xorwow_items(n / 2, absent_seed);
  std::vector<uint64_t> query(n);
  for (uint64_t i = 0; i < n; ++i)
    query[i] = i % 2 ? absent[i / 2] : keys[(i / 2 * 7919) % stored];
  return query;
}

/// Median microseconds per 1024-key and per 128-key INSERT and ERASE frame
/// on a bulk TCF held at 60 % load: each timed insert frame of fresh keys
/// is followed by a timed erase of the same frame, so the load never
/// drifts.  Frames are timed on one pool worker, as tcf_frame_cost() times
/// its own: a reactor part reaches the filter inside the store's per-shard
/// launch, where the filter's phase launches run inline.  A 128-key frame
/// is what one shard of an 8-shard store gets from a 1024-key wire frame.
/// Before each 1024-key frame the control (control_us) is timed, then a
/// 4096-key QUERY frame through contains_each, the store's read path.
void btcf_frame_cost() {
  std::vector<std::string> cols = {"insert",   "erase",   "insert128",
                                   "erase128", "control", "query4096"};
  bench::print_series_header("btcf 1024-key frame us (60% load)", cols);
  for (int log_size : kFrameSizes) {
    tcf::bulk_tcf<> f(uint64_t{1} << log_size);
    const uint64_t prefill = f.capacity() * 60 / 100;
    auto keys = util::hashed_xorwow_items(
        prefill + kFramesTimed * kFrameKeys, 9500 + log_size);
    f.insert_bulk(std::span<const uint64_t>(keys).first(prefill));
    const auto query = query_frames(keys, prefill,
                                    kFramesTimed * kBtcfQueryKeys,
                                    9800 + log_size);
    std::vector<double> vals, ctl_us, qry_us;
    uint64_t hits = 0;
    for (uint64_t frame_keys : {kFrameKeys, kShardSliceKeys}) {
      std::vector<double> ins_us, era_us;
      gpu::launch_ranges(1, [&](unsigned, uint64_t, uint64_t) {
        for (int i = 0; i < kFramesTimed; ++i) {
          std::span<const uint64_t> frame(
              keys.data() + prefill + i * frame_keys, frame_keys);
          if (frame_keys == kFrameKeys) {
            ctl_us.push_back(control_us());
            util::wall_timer t;
            f.contains_each(std::span<const uint64_t>(query).subspan(
                                i * kBtcfQueryKeys, kBtcfQueryKeys),
                            [&](size_t, bool hit) { hits += hit; });
            qry_us.push_back(t.seconds() * 1e6);
          }
          util::wall_timer t;
          f.insert_bulk(frame);
          ins_us.push_back(t.seconds() * 1e6);
          t.reset();
          f.erase_bulk(frame);
          era_us.push_back(t.seconds() * 1e6);
        }
      });
      vals.push_back(median(ins_us));
      vals.push_back(median(era_us));
    }
    vals.push_back(median(ctl_us));
    vals.push_back(median(qry_us));
    g_query_hits = hits;
    bench::print_series_row(log_size, vals);
    const auto btcf = store::backend_kind::bulk_tcf;
    emit_json(btcf, 1, log_size, "btcf_frame_insert_us", vals[0]);
    emit_json(btcf, 1, log_size, "btcf_frame_erase_us", vals[1]);
    emit_json(btcf, 1, log_size, "btcf_frame128_insert_us", vals[2]);
    emit_json(btcf, 1, log_size, "btcf_frame128_erase_us", vals[3]);
    emit_json(btcf, 1, log_size, "btcf_frame_control_us", vals[4]);
    emit_json(btcf, 1, log_size, "btcf_frame_query_us", vals[5]);
  }
}

/// AnonHugePages (KiB) of the /proc/self/smaps mapping that holds p, or
/// -1 when smaps cannot be read.  Only reads.
double anon_huge_kb(const void* p) {
  const auto addr = reinterpret_cast<uintptr_t>(p);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    std::istringstream in(line);
    std::string field;
    in >> field;
    // A mapping starts with "lo-hi perms ...", its fields follow.
    const size_t dash = field.find('-');
    if (dash != std::string::npos && field.back() != ':') {
      inside = std::stoull(field.substr(0, dash), nullptr, 16) <= addr &&
               addr < std::stoull(field.substr(dash + 1), nullptr, 16);
    } else if (inside && field == "AnonHugePages:") {
      double kb = -1;
      in >> kb;
      return kb;
    }
  }
  return -1;
}

constexpr uint64_t kTcfFrameKeys = 2048;
constexpr int kTcfFrameSizes[] = {16, 26};

/// Median microseconds per 2048-key QUERY, INSERT and ERASE frame (one
/// wire_bulk_tcf reactor part) on a point TCF held at 33 % load, timed as
/// btcf_frame_cost() times its frames but on one pool worker: a reactor
/// part reaches the filter inside the store's per-shard launch, where the
/// filter's own launch runs inline.  A 2^16-slot table is cache resident
/// and a 2^26-slot one is not, so their ratio is what a frame pays for
/// DRAM fetches the batch pipeline does not overlap.  A QUERY frame
/// alternates stored keys with never-inserted ones, so half its keys scan
/// both candidate blocks (and the backing table) to answer no; it runs
/// through contains_each, the store's read path.  The control
/// (control_us) is timed before each QUERY frame.  The last two columns
/// are the block array's address mod 2 MiB and its mapping's
/// AnonHugePages in KiB, read after the timed frames.
void tcf_frame_cost() {
  std::vector<std::string> cols = {"query",   "insert",  "erase",
                                   "control", "addr%2M", "hugeKiB"};
  bench::print_series_header("tcf 2048-key frame us (33% load)", cols);
  for (int log_size : kTcfFrameSizes) {
    tcf::point_tcf f(uint64_t{1} << log_size);
    const uint64_t prefill = f.capacity() * 33 / 100;
    auto keys = util::hashed_xorwow_items(
        prefill + kFramesTimed * kTcfFrameKeys, 9600 + log_size);
    f.insert_bulk(std::span<const uint64_t>(keys).first(prefill));
    const auto query = query_frames(keys, prefill,
                                    kFramesTimed * kTcfFrameKeys,
                                    9700 + log_size);
    std::vector<double> qry_us, ins_us, era_us, ctl_us;
    uint64_t hits = 0;
    gpu::launch_ranges(1, [&](unsigned, uint64_t, uint64_t) {
      for (int i = 0; i < kFramesTimed; ++i) {
        std::span<const uint64_t> frame(
            keys.data() + prefill + i * kTcfFrameKeys, kTcfFrameKeys);
        ctl_us.push_back(control_us());
        util::wall_timer t;
        f.contains_each(std::span<const uint64_t>(query).subspan(
                            i * kTcfFrameKeys, kTcfFrameKeys),
                        [&](size_t, bool hit) { hits += hit; });
        qry_us.push_back(t.seconds() * 1e6);
        t.reset();
        f.insert_bulk(frame);
        ins_us.push_back(t.seconds() * 1e6);
        t.reset();
        f.erase_bulk(frame);
        era_us.push_back(t.seconds() * 1e6);
      }
    });
    g_query_hits = hits;
    const void* table = f.blocks().data();
    std::vector<double> vals = {
        median(qry_us),
        median(ins_us),
        median(era_us),
        median(ctl_us),
        static_cast<double>(reinterpret_cast<uintptr_t>(table) %
                            util::kHugePageBytes),
        anon_huge_kb(table)};
    bench::print_series_row(log_size, vals);
    const auto backend = store::backend_kind::tcf;
    emit_json(backend, 1, log_size, "tcf_frame_query_us", vals[0]);
    emit_json(backend, 1, log_size, "tcf_frame_insert_us", vals[1]);
    emit_json(backend, 1, log_size, "tcf_frame_erase_us", vals[2]);
    emit_json(backend, 1, log_size, "tcf_frame_control_us", vals[3]);
    emit_json(backend, 1, log_size, "tcf_frame_table_mod2m", vals[4]);
    emit_json(backend, 1, log_size, "tcf_frame_anon_huge_kb", vals[5]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::options::parse(argc, argv, {"--json"});
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      g_json = std::fopen(argv[i + 1], "w");
      if (!g_json) {
        std::fprintf(stderr, "cannot open %s\n", argv[i + 1]);
        return 1;
      }
    }
  }
  bench::print_banner(
      "store_scaling: sharded store throughput vs shard count",
      "store subsystem (beyond the paper; cf. §4.2/§5.3 bulk APIs, §5.4)");
  std::printf("host workers: %u\n", gpu::query_pool_size());

  sweep_backend(store::backend_kind::tcf, opts);
  sweep_backend(store::backend_kind::gqf, opts);
  sweep_backend(store::backend_kind::blocked_bloom, opts);
  sweep_backend(store::backend_kind::bulk_tcf, opts);
  btcf_frame_cost();
  tcf_frame_cost();

  if (g_json) std::fclose(g_json);
  return 0;
}
