// End-to-end observability tests over loopback: a live net::server, a
// workload driven through net::client, then scrapes of the STATS-family
// surfaces — the Prometheus text exposition (kStatsMetricsHint), the
// chrome://tracing event dump (kStatsTraceHint), and the enriched STATS
// JSON.  Asserts the metric-name schema is stable (pinned sample by sample
// at one and two reactors), per-opcode and per-stage wire histograms
// actually fill, counters are monotone between scrapes, a scrape leaves
// protocol_errors at zero, and stats(), the scrape and the STATS JSON report
// the same value for every server and durability stat (the process pool's
// contended-launch count included).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gpu/thread_pool.h"
#include "net/client.h"
#include "net/replication.h"
#include "net/server.h"
#include "persist/durability.h"
#include "persist/wal.h"
#include "store/store.h"
#include "util/xorwow.h"

using namespace gf;

namespace {

struct live_server {
  net::server srv;
  std::thread loop;
  bool stopped = false;

  explicit live_server(store::filter_store st, net::server_config cfg = {})
      : srv(std::move(cfg), std::move(st)), loop([this] { srv.run(); }) {}
  /// Replica form: adopt the feed (one last-applied position per lane)
  /// before the loop starts.
  live_server(net::sync_result sr, net::server_config cfg)
      : srv(std::move(cfg), std::move(sr.store)) {
    srv.attach_feed(std::move(sr.feed), std::move(sr.dec),
                    std::span<const uint64_t>(sr.lane_seqs));
    loop = std::thread([this] { srv.run(); });
  }
  ~live_server() { stop(); }
  void stop() {
    if (stopped) return;
    stopped = true;
    srv.request_stop();
    loop.join();
  }

  net::client connect() { return net::client("127.0.0.1", srv.port()); }
};

store::filter_store small_store() {
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = 4;
  cfg.capacity = 1 << 16;
  return store::filter_store(cfg);
}

/// Value of the first sample line that starts exactly with `prefix`
/// followed by ' ' or '{' — tolerant of labels, strict about names.
uint64_t scrape(const std::string& text, const std::string& prefix) {
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      size_t after = pos + prefix.size();
      if (after < text.size() &&
          (text[after] == ' ' || text[after] == '{')) {
        size_t sp = text.find(' ', after);
        return std::stoull(text.substr(sp + 1));
      }
    }
    ++pos;
  }
  ADD_FAILURE() << "metric not found: " << prefix;
  return 0;
}

bool has_line(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

void drive_workload(net::client& cli, uint64_t seed) {
  auto keys = util::hashed_xorwow_items(8192, seed);
  std::span<const uint64_t> span(keys);
  for (size_t lo = 0; lo < keys.size(); lo += 1024) {
    cli.insert(span.subspan(lo, 1024));
    cli.query_bitmap(span.subspan(lo, 1024));
  }
  cli.erase(span.subspan(0, 1024));
  cli.counts(span.subspan(0, 1024));
  cli.maintain();
  cli.ping();
}

}  // namespace

TEST(NetMetrics, ExpositionSchemaAndStageHistograms) {
  live_server ls{small_store()};
  auto cli = ls.connect();
  drive_workload(cli, 101);

  const std::string text = cli.metrics_text();

  // Golden name set: the stable scrape surface CI and dashboards key on.
  for (const char* name :
       {"gf_build_info", "gf_uptime_seconds", "gf_server_frames_total",
        "gf_server_keys_total", "gf_server_protocol_errors_total",
        "gf_server_bytes_total", "gf_server_connections_total",
        "gf_store_items", "gf_store_load_factor", "gf_store_shards",
        "gf_store_inserts_total", "gf_store_queries_total",
        "gf_repl_lag_frames", "gf_repl_subscribers",
        "gf_repl_dropped_subscribers_total", "gf_repl_reconnects_total",
        "gf_repl_reconnect_failures_total", "gf_repl_resyncs_total",
        "gf_repl_deltas_served_total", "gf_repl_ack_waits_total",
        "gf_repl_ack_degraded_total", "gf_repl_replay_ring_bytes",
        "gf_repl_replay_ring_frames",
        "gf_wire_latency_ns", "gf_wire_stage_ns", "gf_store_maintain_ns",
        "gf_store_bulk_shard_ns"}) {
    EXPECT_TRUE(has_line(text, std::string("\n") + name) ||
                text.rfind(name, 0) == 0)
        << "missing metric family: " << name;
  }

  // Per-opcode wire latency: the driven opcodes must have samples and a
  // nonzero p50 (a wire round trip cannot take 0ns).
  for (const char* op : {"insert", "query", "erase", "count", "maintain",
                         "ping"}) {
    const std::string count_line =
        std::string("gf_wire_latency_ns_count{op=\"") + op + "\"}";
    EXPECT_GT(scrape(text, count_line), 0u) << op;
    const std::string p50_line =
        std::string("gf_wire_latency_ns_p50{op=\"") + op + "\"}";
    EXPECT_GT(scrape(text, p50_line), 0u) << op;
  }

  // Per-stage breakdown: every frame passes decode/apply/encode, so all
  // three must have at least as many samples as frames served; flush fires
  // whenever responses were queued.
  const uint64_t frames = scrape(text, "gf_server_frames_total");
  EXPECT_GT(frames, 0u);
  for (const char* stage : {"decode", "apply", "encode", "flush"}) {
    const std::string line =
        std::string("gf_wire_stage_ns_count{stage=\"") + stage + "\"}";
    EXPECT_GT(scrape(text, line), 0u) << stage;
  }
  // The scrape renders mid-frame: the STATS frame itself is counted in
  // frames_served but records its stages only after rendering.
  EXPECT_GE(scrape(text, "gf_wire_stage_ns_count{stage=\"apply\"}"),
            frames - 1);

  // Store-side observability filled in by the workload.
  EXPECT_GT(scrape(text, "gf_store_inserts_total"), 0u);
  EXPECT_GT(scrape(text, "gf_store_queries_total"), 0u);
  EXPECT_GT(scrape(text, "gf_store_maintain_ns_count"), 0u);
  EXPECT_GT(scrape(text, "gf_store_bulk_shard_ns_count{path=\"insert\"}"),
            0u);
  EXPECT_GT(scrape(text, "gf_store_items"), 0u);

  // A healthy loopback session scrapes clean.
  EXPECT_EQ(scrape(text, "gf_server_protocol_errors_total"), 0u);
}

TEST(NetMetrics, CountersMonotoneBetweenScrapes) {
  live_server ls{small_store()};
  auto cli = ls.connect();
  drive_workload(cli, 202);

  const std::string first = cli.metrics_text();
  drive_workload(cli, 203);
  const std::string second = cli.metrics_text();

  for (const char* name :
       {"gf_server_frames_total", "gf_server_keys_total",
        "gf_store_inserts_total", "gf_store_queries_total",
        "gf_wire_latency_ns_count{op=\"insert\"}"}) {
    const uint64_t a = scrape(first, name);
    const uint64_t b = scrape(second, name);
    EXPECT_GT(b, a) << name << " did not advance across a workload";
  }
  EXPECT_EQ(scrape(second, "gf_server_protocol_errors_total"), 0u);
}

TEST(NetMetrics, TraceExport) {
  live_server ls{small_store()};
  auto cli = ls.connect();
  drive_workload(cli, 303);

  const std::string json = cli.trace_json();
  // chrome://tracing complete events, named by opcode, in a JSON array.
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_TRUE(has_line(json, "\"ph\":\"X\""));
  EXPECT_TRUE(has_line(json, "\"cat\":\"wire\""));
  EXPECT_TRUE(has_line(json, "\"name\":\"insert\""));
  EXPECT_TRUE(has_line(json, "\"name\":\"query\""));
  EXPECT_TRUE(has_line(json, "\"name\":\"maintain\""));
  EXPECT_TRUE(has_line(json, "\"args\":{\"keys\":1024}"));
}

TEST(NetMetrics, StatsJsonServerSection) {
  live_server ls{small_store()};
  auto cli = ls.connect();
  cli.ping();

  const std::string json = cli.stats_json();
  EXPECT_TRUE(has_line(json, "\"server\":"));
  EXPECT_TRUE(has_line(json, "\"uptime_seconds\":"));
  EXPECT_TRUE(has_line(json, "\"version\":"));
  EXPECT_TRUE(has_line(json, "\"frames_served\":"));
  // A stats request from an old-style client (plain shard hint) still
  // returns the JSON document — hint multiplexing must not break it.
  EXPECT_TRUE(has_line(json, "\"backend\":\"tcf\""));
}

TEST(NetMetrics, ScrapeIsSideEffectFreeOnStoreCounters) {
  live_server ls{small_store()};
  auto cli = ls.connect();
  drive_workload(cli, 404);

  const std::string first = cli.metrics_text();
  // Scraping (and the STATS JSON) must not advance store op counters.
  cli.stats_json();
  cli.trace_json();
  const std::string second = cli.metrics_text();
  EXPECT_EQ(scrape(first, "gf_store_inserts_total"),
            scrape(second, "gf_store_inserts_total"));
  EXPECT_EQ(scrape(first, "gf_store_queries_total"),
            scrape(second, "gf_store_queries_total"));
}

// -- Multi-reactor scrapes ----------------------------------------------------

TEST(NetMetrics, MultiReactorScrapeUnderFloodIsConsistent) {
  // Four reactors mutating concurrently while a fifth connection scrapes
  // in a loop.  Every scrape renders on reactor 0 under the stop-the-world
  // barrier, so it is a consistent cut: counters must be monotone across
  // scrapes (a torn render — half the reactors counted before the flood
  // advanced, half after — shows up as a counter going backwards), and
  // derived sums (frames >= keys-carrying frames) must stay coherent.
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = 8;
  cfg.capacity = 1 << 16;
  net::server_config scfg;
  scfg.reactors = 4;
  net::server srv(std::move(scfg), store::filter_store(cfg));
  std::thread loop([&] { srv.run(); });

  std::atomic<bool> stop{false};
  std::vector<std::thread> flood;
  for (int t = 0; t < 3; ++t)
    flood.emplace_back([&, t] {
      net::client cli("127.0.0.1", srv.port());
      auto keys = util::hashed_xorwow_items(2048, 505 + t);
      std::span<const uint64_t> span(keys);
      while (!stop.load(std::memory_order_relaxed)) {
        cli.insert(span);
        cli.query_bitmap(span);
        cli.erase(span.subspan(0, 256));
      }
    });

  {
    net::client scraper("127.0.0.1", srv.port());
    uint64_t last_frames = 0, last_keys = 0, last_inserts = 0;
    for (int i = 0; i < 25; ++i) {
      const std::string text = scraper.metrics_text();
      const uint64_t frames = scrape(text, "gf_server_frames_total");
      const uint64_t keys = scrape(text, "gf_server_keys_total");
      const uint64_t inserts = scrape(text, "gf_store_inserts_total");
      EXPECT_GE(frames, last_frames) << "frames_total went backwards";
      EXPECT_GE(keys, last_keys) << "keys_total went backwards";
      EXPECT_GE(inserts, last_inserts) << "store inserts went backwards";
      last_frames = frames;
      last_keys = keys;
      last_inserts = inserts;
      // Per-reactor gauges exist and lane labels appear at nr > 1.
      EXPECT_TRUE(has_line(text, "gf_reactor_connections{reactor=\"0\"}"));
      EXPECT_TRUE(has_line(text, "gf_reactor_connections{reactor=\"3\"}"));
      EXPECT_TRUE(has_line(text, "lane=\"0\""));
      EXPECT_TRUE(has_line(text, "lane=\"3\""));
    }
    EXPECT_GT(last_frames, 0u);
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : flood) t.join();
  srv.request_stop();
  loop.join();
}

// A multi-reactor INSERT frame is grouped once and each reactor applies
// only its own shards' run, so a frame that reaches all 8 shards of a
// 2-reactor store times each shard once: 8 samples, not 8 per reactor.
TEST(NetMetrics, BulkShardSamplesCountShardsWithKeys) {
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = 8;
  cfg.capacity = 1 << 16;
  net::server_config scfg;
  scfg.reactors = 2;
  live_server ls{store::filter_store(cfg), std::move(scfg)};
  auto cli = ls.connect();
  const auto keys = util::hashed_xorwow_items(4096, 611);
  const store::filter_store layout(cfg);
  std::vector<bool> hit(cfg.num_shards);
  for (uint64_t k : keys) hit[layout.shard_of(k)] = true;
  ASSERT_EQ(std::count(hit.begin(), hit.end(), true), 8);

  const std::string line = "gf_store_bulk_shard_ns_count{path=\"insert\"}";
  const uint64_t before = scrape(cli.metrics_text(), line);
  EXPECT_EQ(cli.insert(std::span<const uint64_t>(keys)).ok, keys.size());
  EXPECT_EQ(scrape(cli.metrics_text(), line) - before, 8u);
}

TEST(NetMetrics, SingleReactorScrapeHasNoLaneLabels) {
  // The nr == 1 exposition must stay byte-compatible with the pre-reactor
  // schema: no lane labels, no per-reactor gauge families.
  live_server ls{small_store()};
  auto cli = ls.connect();
  drive_workload(cli, 606);
  const std::string text = cli.metrics_text();
  EXPECT_FALSE(has_line(text, "lane=\""));
  EXPECT_FALSE(has_line(text, "gf_reactor_connections"));
  EXPECT_FALSE(has_line(text, "gf_reactor_handoffs_total"));
}

// -- One metrics source -------------------------------------------------------

namespace {

/// The exposition's ordered schema: one `<type> name{labels}` line per
/// sample.  A histogram series contributes one line (its `_count` sample,
/// named without the suffix: every series has the same bucket, sum and
/// quantile shape), and gf_build_info its bare name (its labels name the
/// compiler and build type).
std::string schema_of(const std::string& text) {
  std::istringstream in(text);
  std::string line, type, out;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      type = line.substr(line.rfind(' ') + 1);
      continue;
    }
    std::string series = line.substr(0, line.rfind(' '));
    if (type == "histogram") {
      const size_t name_end = std::min(series.find('{'), series.size());
      if (name_end < 6 || series.compare(name_end - 6, 6, "_count") != 0)
        continue;
      series.erase(name_end - 6, 6);
    }
    if (series.rfind("gf_build_info{", 0) == 0) series = "gf_build_info";
    out += type + ' ' + series + '\n';
  }
  return out;
}

// What a fresh, non-durable 4-shard server exposes: the schema scrapers and
// dashboards key on.  Changing it is a visible change for every operator.
const char* const kSchemaOneReactor = R"(counter gf_server_frames_total
counter gf_server_keys_total
counter gf_server_protocol_errors_total
counter gf_server_bytes_total{dir="in"}
counter gf_server_bytes_total{dir="out"}
counter gf_server_connections_total{event="accepted"}
counter gf_server_connections_total{event="closed"}
counter gf_server_barriers_total
counter gf_pool_contended_launches_total
counter gf_server_read_only_refusals_total
counter gf_trace_events_total
counter gf_repl_frames_forwarded_total
counter gf_repl_dropped_subscribers_total
counter gf_repl_subscriber_errors_total
counter gf_repl_invites_failed_total
counter gf_repl_feed_applied_total
counter gf_repl_feed_gaps_total
counter gf_repl_feed_lost_total
counter gf_repl_reconnects_total
counter gf_repl_reconnect_failures_total
counter gf_repl_resyncs_total{kind="delta"}
counter gf_repl_resyncs_total{kind="snapshot"}
counter gf_repl_deltas_served_total
counter gf_repl_ack_waits_total
counter gf_repl_ack_degraded_total
counter gf_repl_wal_deltas_served_total
counter gf_store_inserts_total
counter gf_store_insert_failures_total
counter gf_store_queries_total
counter gf_store_query_hits_total
counter gf_store_erases_total
counter gf_store_erase_failures_total
counter gf_store_batches_drained_total
counter gf_store_overflow_answered_total
counter gf_filter_cache_lines_touched_total
counter gf_filter_cas_attempts_total
counter gf_filter_cas_failures_total
counter gf_filter_backing_inserts_total
counter gf_filter_shortcut_inserts_total
counter gf_filter_ballot_rounds_total
counter gf_filter_slots_shifted_total
gauge gf_build_info
gauge gf_uptime_seconds
gauge gf_repl_replay_ring_bytes
gauge gf_repl_replay_ring_frames
gauge gf_repl_seq
gauge gf_repl_subscribers
gauge gf_repl_subscriber_acked
gauge gf_repl_lag_frames
gauge gf_repl_ack_age_seconds
gauge gf_repl_feed_attached
gauge gf_repl_feed_last_seq
gauge gf_store_items
gauge gf_store_provisioned_capacity
gauge gf_store_memory_bytes
gauge gf_store_load_factor
gauge gf_store_shards
gauge gf_store_cascade_max_depth
histogram gf_wire_latency_ns{op="insert"}
histogram gf_wire_latency_ns{op="insert_counted"}
histogram gf_wire_latency_ns{op="query"}
histogram gf_wire_latency_ns{op="erase"}
histogram gf_wire_latency_ns{op="count"}
histogram gf_wire_latency_ns{op="stats"}
histogram gf_wire_latency_ns{op="maintain"}
histogram gf_wire_latency_ns{op="snapshot"}
histogram gf_wire_latency_ns{op="ping"}
histogram gf_wire_latency_ns{op="sync"}
histogram gf_wire_stage_ns{stage="decode"}
histogram gf_wire_stage_ns{stage="apply"}
histogram gf_wire_stage_ns{stage="encode"}
histogram gf_wire_stage_ns{stage="flush"}
histogram gf_store_bulk_shard_ns{path="insert"}
histogram gf_store_bulk_shard_ns{path="apply"}
histogram gf_store_bulk_shard_ns{path="drain"}
histogram gf_store_maintain_ns
)";

const char* const kSchemaTwoReactors = R"(counter gf_server_frames_total
counter gf_server_keys_total
counter gf_server_protocol_errors_total
counter gf_server_bytes_total{dir="in"}
counter gf_server_bytes_total{dir="out"}
counter gf_server_connections_total{event="accepted"}
counter gf_server_connections_total{event="closed"}
counter gf_server_barriers_total
counter gf_pool_contended_launches_total
counter gf_server_read_only_refusals_total
counter gf_trace_events_total
counter gf_repl_frames_forwarded_total
counter gf_repl_dropped_subscribers_total
counter gf_repl_subscriber_errors_total
counter gf_repl_invites_failed_total
counter gf_repl_feed_applied_total
counter gf_repl_feed_gaps_total
counter gf_repl_feed_lost_total
counter gf_repl_reconnects_total
counter gf_repl_reconnect_failures_total
counter gf_repl_resyncs_total{kind="delta"}
counter gf_repl_resyncs_total{kind="snapshot"}
counter gf_repl_deltas_served_total
counter gf_repl_ack_waits_total
counter gf_repl_ack_degraded_total
counter gf_repl_wal_deltas_served_total
counter gf_store_inserts_total
counter gf_store_insert_failures_total
counter gf_store_queries_total
counter gf_store_query_hits_total
counter gf_store_erases_total
counter gf_store_erase_failures_total
counter gf_store_batches_drained_total
counter gf_store_overflow_answered_total
counter gf_filter_cache_lines_touched_total
counter gf_filter_cas_attempts_total
counter gf_filter_cas_failures_total
counter gf_filter_backing_inserts_total
counter gf_filter_shortcut_inserts_total
counter gf_filter_ballot_rounds_total
counter gf_filter_slots_shifted_total
counter gf_reactor_handoffs_total{reactor="0"}
counter gf_reactor_handoffs_total{reactor="1"}
gauge gf_build_info
gauge gf_uptime_seconds
gauge gf_repl_replay_ring_bytes
gauge gf_repl_replay_ring_frames
gauge gf_repl_seq
gauge gf_repl_subscribers
gauge gf_repl_subscriber_acked
gauge gf_repl_lag_frames
gauge gf_repl_ack_age_seconds
gauge gf_repl_feed_attached
gauge gf_repl_feed_last_seq
gauge gf_store_items
gauge gf_store_provisioned_capacity
gauge gf_store_memory_bytes
gauge gf_store_load_factor
gauge gf_store_shards
gauge gf_store_cascade_max_depth
gauge gf_reactor_connections{reactor="0"}
gauge gf_reactor_mailbox_depth{reactor="0"}
gauge gf_reactor_connections{reactor="1"}
gauge gf_reactor_mailbox_depth{reactor="1"}
histogram gf_wire_latency_ns{op="insert",lane="0"}
histogram gf_wire_latency_ns{op="insert_counted",lane="0"}
histogram gf_wire_latency_ns{op="query",lane="0"}
histogram gf_wire_latency_ns{op="erase",lane="0"}
histogram gf_wire_latency_ns{op="count",lane="0"}
histogram gf_wire_latency_ns{op="stats",lane="0"}
histogram gf_wire_latency_ns{op="maintain",lane="0"}
histogram gf_wire_latency_ns{op="snapshot",lane="0"}
histogram gf_wire_latency_ns{op="ping",lane="0"}
histogram gf_wire_latency_ns{op="sync",lane="0"}
histogram gf_wire_stage_ns{stage="decode",lane="0"}
histogram gf_wire_stage_ns{stage="apply",lane="0"}
histogram gf_wire_stage_ns{stage="encode",lane="0"}
histogram gf_wire_stage_ns{stage="flush",lane="0"}
histogram gf_wire_latency_ns{op="insert",lane="1"}
histogram gf_wire_latency_ns{op="insert_counted",lane="1"}
histogram gf_wire_latency_ns{op="query",lane="1"}
histogram gf_wire_latency_ns{op="erase",lane="1"}
histogram gf_wire_latency_ns{op="count",lane="1"}
histogram gf_wire_latency_ns{op="stats",lane="1"}
histogram gf_wire_latency_ns{op="maintain",lane="1"}
histogram gf_wire_latency_ns{op="snapshot",lane="1"}
histogram gf_wire_latency_ns{op="ping",lane="1"}
histogram gf_wire_latency_ns{op="sync",lane="1"}
histogram gf_wire_stage_ns{stage="decode",lane="1"}
histogram gf_wire_stage_ns{stage="apply",lane="1"}
histogram gf_wire_stage_ns{stage="encode",lane="1"}
histogram gf_wire_stage_ns{stage="flush",lane="1"}
histogram gf_store_bulk_shard_ns{path="insert"}
histogram gf_store_bulk_shard_ns{path="apply"}
histogram gf_store_bulk_shard_ns{path="drain"}
histogram gf_store_maintain_ns
)";

/// Exact value of the sample `series` (name{labels}); a value that is not
/// a plain decimal integer (say 1.23457e+06) fails the test.
uint64_t exact_sample(const std::string& text, const std::string& series) {
  const std::string head = series + ' ';
  size_t pos = text.rfind(head, 0) == 0 ? 0 : text.find('\n' + head);
  if (pos == std::string::npos) {
    ADD_FAILURE() << "sample not found: " << series;
    return 0;
  }
  if (text[pos] == '\n') ++pos;
  const size_t begin = pos + head.size();
  const std::string value = text.substr(begin, text.find('\n', begin) - begin);
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    ADD_FAILURE() << series << " is not an exact integer: " << value;
    return 0;
  }
  return std::stoull(value);
}

/// The raw value text of `key` inside the flat STATS JSON object `section`.
std::string json_value(const std::string& json, const std::string& section,
                       const std::string& key) {
  const size_t open = json.find('"' + section + "\":{");
  if (open == std::string::npos) {
    ADD_FAILURE() << "no JSON section " << section;
    return "";
  }
  const size_t close = json.find('}', open);
  const std::string needle = '"' + key + "\":";
  const size_t at = json.find(needle, open);
  if (at == std::string::npos || at > close) {
    ADD_FAILURE() << "no JSON key " << section << "." << key;
    return "";
  }
  const size_t begin = at + needle.size();
  return json.substr(begin, json.find_first_of(",}", begin) - begin);
}

/// Every stored server_stats field with the sample and the STATS JSON key
/// that must report it — what operators scrape, written out by hand.
struct surface_row {
  uint64_t net::server_stats::* field;
  const char* sample;
  const char* section;
  const char* key;
};
using ss = net::server_stats;
const surface_row kServerSurfaces[] = {
    {&ss::frames_served, "gf_server_frames_total", "server", "frames_served"},
    {&ss::keys_processed, "gf_server_keys_total", "server", "keys_processed"},
    {&ss::protocol_errors, "gf_server_protocol_errors_total", "server", "protocol_errors"},
    {&ss::bytes_in, R"(gf_server_bytes_total{dir="in"})", "server", "bytes_in"},
    {&ss::bytes_out, R"(gf_server_bytes_total{dir="out"})", "server", "bytes_out"},
    {&ss::connections_accepted, R"(gf_server_connections_total{event="accepted"})", "server", "connections_accepted"},
    {&ss::connections_closed, R"(gf_server_connections_total{event="closed"})", "server", "connections_closed"},
    {&ss::barriers, "gf_server_barriers_total", "server", "barriers"},
    {&ss::pool_contended_launches, "gf_pool_contended_launches_total", "server", "pool_contended_launches"},
    {&ss::read_only_refusals, "gf_server_read_only_refusals_total", "replication", "read_only_refusals"},
    {&ss::frames_forwarded, "gf_repl_frames_forwarded_total", "replication", "frames_forwarded"},
    {&ss::subscriber_drops, "gf_repl_dropped_subscribers_total", "replication", "subscriber_drops"},
    {&ss::subscriber_errors, "gf_repl_subscriber_errors_total", "replication", "subscriber_errors"},
    {&ss::invites_failed, "gf_repl_invites_failed_total", "replication", "invites_failed"},
    {&ss::feed_applied, "gf_repl_feed_applied_total", "replication", "feed_applied"},
    {&ss::feed_gaps, "gf_repl_feed_gaps_total", "replication", "feed_gaps"},
    {&ss::feed_lost, "gf_repl_feed_lost_total", "replication", "feed_lost"},
    {&ss::feed_reconnects, "gf_repl_reconnects_total", "replication", "feed_reconnects"},
    {&ss::reconnect_failures, "gf_repl_reconnect_failures_total", "replication", "reconnect_failures"},
    {&ss::resyncs_delta, R"(gf_repl_resyncs_total{kind="delta"})", "replication", "resyncs_delta"},
    {&ss::resyncs_snapshot, R"(gf_repl_resyncs_total{kind="snapshot"})", "replication", "resyncs_snapshot"},
    {&ss::deltas_served, "gf_repl_deltas_served_total", "replication", "deltas_served"},
    {&ss::ack_waits, "gf_repl_ack_waits_total", "replication", "ack_waits"},
    {&ss::ack_degraded, "gf_repl_ack_degraded_total", "replication", "ack_degraded"},
    {&ss::subscribers, "gf_repl_subscribers", "replication", "subscribers"},
    {&ss::subscriber_acked, "gf_repl_subscriber_acked", "replication", "subscriber_acked"},
    {&ss::feed_attached, "gf_repl_feed_attached", "replication", "feed_attached"},
    {&ss::feed_last_seq, "gf_repl_feed_last_seq", "replication", "feed_last_seq"},
    {&ss::wal_deltas_served, "gf_repl_wal_deltas_served_total", "replication", "wal_deltas_served"},
};
static_assert(std::size(kServerSurfaces) == net::kStoredServerStats);

struct durability_surface {
  uint64_t persist::durability_stats::* field;
  const char* sample;
  const char* key;  ///< in the STATS JSON "durability" object
};
using ds = persist::durability_stats;
const durability_surface kDurabilitySurfaces[] = {
    {&ds::wal_bytes, "gf_wal_bytes_total", "wal_bytes"},
    {&ds::wal_frames, "gf_wal_frames_total", "wal_frames"},
    {&ds::wal_fsyncs, "gf_wal_fsyncs_total", "wal_fsyncs"},
    {&ds::segments_rotated, "gf_wal_segments_rotated_total", "segments_rotated"},
    {&ds::checkpoints, "gf_checkpoints_total", "checkpoints"},
    {&ds::wal_segments, "gf_wal_segments", "wal_segments"},
    {&ds::last_seq, "gf_wal_last_seq", "wal_last_seq"},
    {&ds::checkpoint_seq, "gf_checkpoint_seq", "checkpoint_seq"},
    {&ds::checkpoint_bytes, "gf_checkpoint_bytes", "checkpoint_bytes"},
    {&ds::recovery_replayed_frames, "gf_recovery_replayed_frames", "recovery_replayed_frames"},
    {&ds::recovery_truncated_bytes, "gf_recovery_truncated_bytes", "recovery_truncated_bytes"},
    {&ds::recovery_gaps, "gf_recovery_gaps", "recovery_gaps"},
};
static_assert(std::size(kDurabilitySurfaces) ==
              sizeof(persist::durability_stats) / sizeof(uint64_t));

/// Assert that stats() (and the durability engine's stats(), when armed),
/// the metrics text and the STATS JSON agree on every row.  Call with the
/// server stopped, so no counter moves between the three reads.
void expect_surfaces_agree(const net::server& srv,
                           const persist::durability_engine* dur,
                           const std::string& who) {
  const net::server_stats s = srv.stats();
  const std::string text = srv.metrics_text();
  const std::string json = srv.stats_json();
  for (const surface_row& row : kServerSurfaces) {
    const uint64_t v = s.*row.field;
    EXPECT_EQ(exact_sample(text, row.sample), v) << who << ": " << row.sample;
    const std::string j = json_value(json, row.section, row.key);
    if (row.field == &ss::feed_attached)
      EXPECT_EQ(j, v != 0 ? "true" : "false") << who << ": " << row.key;
    else
      EXPECT_EQ(j, std::to_string(v)) << who << ": " << row.key;
  }
  if (dur == nullptr) return;
  const persist::durability_stats d = dur->stats();
  for (const durability_surface& row : kDurabilitySurfaces) {
    const uint64_t v = d.*row.field;
    EXPECT_EQ(exact_sample(text, row.sample), v) << who << ": " << row.sample;
    EXPECT_EQ(json_value(json, "durability", row.key), std::to_string(v))
        << who << ": durability." << row.key;
  }
}

}  // namespace

TEST(NetMetrics, ExpositionSchemaIsPinnedAtOneAndTwoReactors) {
  for (uint32_t nr : {1u, 2u}) {
    net::server_config cfg;
    cfg.reactors = nr;
    net::server srv(std::move(cfg), small_store());
    EXPECT_EQ(schema_of(srv.metrics_text()),
              nr == 1 ? kSchemaOneReactor : kSchemaTwoReactors)
        << nr << " reactor(s)";
  }
}

TEST(NetMetrics, StatsScrapeAndJsonAgreeOnEveryStoredStat) {
  // A WAL-armed primary and a replica, at one and at two reactors: every
  // stored stat reads the same in stats(), the metrics text and the STATS
  // JSON — integer gauges included (a lane-1 feed_last_seq is past 2^56).
  for (uint32_t nr : {1u, 2u}) {
    const std::string dir = std::string(::testing::TempDir()) +
                            "gf_surfaces_" + std::to_string(nr) + "_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    persist::wal_config wcfg;
    wcfg.dir = dir;
    wcfg.fsync = persist::fsync_policy::none;
    persist::durability_engine dur(std::move(wcfg));
    store::filter_store st = dur.recover([] {
      return std::pair<store::filter_store, uint64_t>(small_store(), 0);
    });

    net::server_config pcfg;
    pcfg.reactors = nr;
    pcfg.durability = &dur;
    live_server primary(std::move(st), std::move(pcfg));
    net::server_config rcfg;
    rcfg.reactors = nr;
    rcfg.read_only = true;
    live_server replica(net::sync_from("127.0.0.1", primary.srv.port()),
                        std::move(rcfg));

    auto cli = primary.connect();
    drive_workload(cli, 700 + nr);
    auto reader = replica.connect();
    const auto keys = util::hashed_xorwow_items(1024, 700 + nr);
    reader.query_bitmap(keys);
    EXPECT_THROW(reader.insert(keys), std::exception);  // read-only refusal
    const uint64_t head = primary.srv.stats().repl_seq;
    for (int i = 0; i < 5000 && (replica.srv.stats().repl_seq != head ||
                                 primary.srv.stats().subscriber_acked != head);
         ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(replica.srv.stats().repl_seq, head);
    EXPECT_GT(replica.srv.stats().feed_applied, 0u);

    replica.stop();
    primary.stop();
    const std::string tag = std::to_string(nr) + " reactor(s)";
    expect_surfaces_agree(primary.srv, &dur, "primary, " + tag);
    expect_surfaces_agree(replica.srv, nullptr, "replica, " + tag);
    std::filesystem::remove_all(dir);
  }
}

TEST(NetMetrics, PoolContendedLaunchesReachEverySurface) {
  // gf_pool_contended_launches_total reads the process pool's count of
  // top-level launches that found it busy and ran inline on their caller.
  // One launch made while another thread's launch holds the pool shows in
  // stats(), the scrape and the STATS JSON alike.
  net::server srv(net::server_config{}, small_store());
  gpu::thread_pool& pool = gpu::thread_pool::instance();
  const uint64_t before = pool.contended_launches();
  std::atomic<bool> holding{false}, done{false};
  std::thread holder([&] {
    pool.run_on_all([&](unsigned w) {
      if (w != 0) return;
      holding.store(true);
      while (!done.load()) std::this_thread::yield();
    });
  });
  while (!holding.load()) std::this_thread::yield();
  pool.run_on_all([](unsigned) {});
  done.store(true);
  holder.join();
  // A one-worker pool runs every launch inline and never contends.
  const uint64_t want = before + (pool.size() > 1 ? 1 : 0);
  EXPECT_EQ(pool.contended_launches(), want);
  EXPECT_EQ(srv.stats().pool_contended_launches, want);
  EXPECT_EQ(exact_sample(srv.metrics_text(),
                         "gf_pool_contended_launches_total"),
            want);
  EXPECT_EQ(json_value(srv.stats_json(), "server", "pool_contended_launches"),
            std::to_string(want));
}
