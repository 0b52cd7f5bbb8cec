// store_server: the sharded filter store as a network service.
//
//   build/examples/store_server [--backend tcf|gqf|bbf|btcf] [--shards N]
//                               [--capacity N] [--reactors N]
//                               [--bind ADDR] [--port N]
//                               [--snapshot PATH] [--selftest ROUNDS]
//                               [--replica-of HOST:PORT] [--replica]
//                               [--replicate-to HOST:PORT]
//                               [--ack-replicas N] [--ack-timeout-ms N]
//                               [--replay-ring-mb N] [--trace-out PATH]
//                               [--wal-dir PATH]
//                               [--wal-fsync every|interval|none]
//                               [--wal-fsync-interval-ms N]
//                               [--wal-segment-mb N]
//                               [--checkpoint-every-mb N]
//
// Network mode (default): serve the gf::net batched wire protocol
// (src/net/frame.h) on --port.  Batches funnel into the store's bulk
// machinery; responses carry the request's sequence id, so clients may
// pipeline (examples/store_client.cpp is the matching load generator).
//
//   * --snapshot PATH arms the SNAPSHOT opcode, and the server persists
//     the store there on shutdown (atomically: tmp + fsync + rename, so a
//     crash mid-save keeps the previous snapshot).  If PATH already exists
//     the server *restores* from it at startup — kill -TERM && restart is
//     a clean durability cycle, not a data loss.
//   * SIGINT/SIGTERM stop the event loop gracefully (async-signal-safe
//     wakeup pipe); in-flight state is saved, not dropped on the floor.
//
// Replication (src/net/replication.h):
//   * --replica-of HOST:PORT boots as a replica: SYNC-bootstrap the whole
//     store from that primary (through --snapshot's atomic write when
//     set), then apply its live mutation stream.  The replica answers
//     QUERY/COUNT/STATS/PING (and serves SYNC to chain further replicas)
//     but refuses client mutations in-band; if the primary dies it keeps
//     serving the last acknowledged stream position.
//   * --replica boots as an empty read-only *standby* that waits for a
//     primary's invite.
//   * --replicate-to HOST:PORT (repeatable) makes this server invite the
//     standby at that address to sync from it (best-effort, sent once at
//     startup; replicas attaching via --replica-of need no flag here).
//   * A --replica-of replica *supervises* its feed: if the primary dies
//     or the stream gaps, it reconnects with jittered exponential backoff
//     and re-syncs — by replayed delta when the primary's replication log
//     still holds the whole gap, by full snapshot otherwise.
//   * --ack-replicas N gates mutating client responses on N subscriber
//     acks; --ack-timeout-ms bounds the wait (on expiry the response is
//     released with wire_status::ok_async — applied, durability softened).
//   * --replay-ring-mb sizes the in-memory tier of the primary's
//     replication log (the delta re-sync window kept in memory); 0 keeps
//     none, leaving deltas to the WAL (with --wal-dir) or snapshots.
//
// Durability (src/persist/):
//   * --wal-dir PATH arms the write-ahead log: every applied mutating
//     batch is appended (as the exact replication wire frame) before its
//     response can flush, checkpoints fold the log into an atomic
//     snapshot, and a restart replays only the tail above the checkpoint
//     — O(delta), not O(store).  SIGKILL mid-write is survivable: the
//     torn tail is detected by the frame CRC and truncated on recovery.
//   * --wal-fsync picks the durability/latency trade: `every` fsyncs per
//     frame (no acknowledged write is ever lost), `interval` fsyncs at
//     most every --wal-fsync-interval-ms (bounded loss window), `none`
//     leaves flushing to the kernel (crash-consistent but lossy).
//   * --wal-segment-mb sizes log segments (rotation unit);
//     --checkpoint-every-mb checkpoints after that much appended log.
//   * With both --wal-dir and --snapshot, the WAL checkpoint wins on
//     restart; the legacy snapshot only seeds a virgin WAL directory.
//   * A replica with --wal-dir logs its applied feed too, and the WAL is
//     the disk tier of the replication log: a primary with one serves
//     delta re-syncs from disk once its in-memory tail has wrapped.
//
// Observability: the running server serves Prometheus-style metrics and a
// chrome://tracing event dump in-band over STATS (see src/net/frame.h's
// kStatsMetricsHint / kStatsTraceHint; store_client --metrics / --trace
// fetches them).  --trace-out PATH additionally writes the trace ring to
// PATH as chrome://tracing JSON after the event loop exits — load it at
// chrome://tracing or https://ui.perfetto.dev.
//
// Self-test mode (--selftest N): the original self-driving simulation — a
// Zipfian request mix (70% lookups, 25% inserts, 5% deletes) applied for N
// rounds with a maintenance pass per round, then a persist + reload +
// spot-check restart drill.  CI smokes use it; it needs no second process.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arg_parse.h"
#include "net/lane.h"
#include "net/replication.h"
#include "net/server.h"
#include "persist/durability.h"
#include "store/report_json.h"
#include "store/store.h"
#include "store/store_io.h"
#include "util/timer.h"
#include "util/xorwow.h"
#include "util/zipf.h"

using namespace gf;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: store_server [--backend tcf|gqf|bbf|btcf] [--shards N]\n"
      "                    [--capacity N] [--reactors N]\n"
      "                    [--bind ADDR] [--port N]\n"
      "                    [--snapshot PATH] [--selftest ROUNDS]\n"
      "                    [--replica-of HOST:PORT] [--replica]\n"
      "                    [--replicate-to HOST:PORT]\n"
      "                    [--ack-replicas N] [--ack-timeout-ms N]\n"
      "                    [--replay-ring-mb N] [--trace-out PATH]\n"
      "                    [--wal-dir PATH] [--wal-fsync every|interval|none]\n"
      "                    [--wal-fsync-interval-ms N] [--wal-segment-mb N]\n"
      "                    [--checkpoint-every-mb N]\n"
      "  shards in [1, %u], capacity in [1024, 2^30], port in [0, 65535]\n"
      "  (port 0 picks an ephemeral port and prints it)\n"
      "  --reactors: event loops, each owning a contiguous shard slice\n"
      "    (clamped to the shard count; a replica must stay read-only)\n"
      "  --replica-of: bootstrap from that primary and serve read-only\n"
      "    (the feed is supervised: lost connections reconnect + re-sync)\n"
      "  --replica: empty read-only standby awaiting a primary's invite\n"
      "  --replicate-to: invite that standby to sync from this server\n"
      "  --ack-replicas: hold mutation replies for N subscriber acks\n"
      "  --ack-timeout-ms: ack-gate deadline before degrading to async\n"
      "  --replay-ring-mb: in-memory delta re-sync window in MiB (0 = none)\n"
      "  --trace-out: write chrome://tracing JSON of recent events on exit\n"
      "  --wal-dir: write-ahead log + checkpoints here; restart replays\n"
      "    only the tail above the checkpoint (crash-safe, O(delta))\n"
      "  --wal-fsync: every (default, lose nothing) | interval | none\n"
      "  --wal-fsync-interval-ms: loss window under --wal-fsync interval\n"
      "  --wal-segment-mb: log rotation unit\n"
      "  --checkpoint-every-mb: checkpoint after that much appended log\n",
      store::kMaxShards);
  return 2;
}

using examples::parse_arg;

// Atomic: signal handlers may only touch lock-free atomics and
// sig_atomic_t, and the pointer is cleared on the main thread after run()
// returns — a plain pointer read from the handler would race that store.
std::atomic<net::server*> g_server{nullptr};
volatile std::sig_atomic_t g_signal = 0;

/// Only async-signal-safe work here: flag the signal and ping the server's
/// wakeup pipe (one write(2)); persistence happens on the main thread
/// after run() returns.
void on_signal(int sig) {
  g_signal = sig;
  if (net::server* s = g_server.load()) s->request_stop();
}

int selftest(store::store_config cfg, int rounds);

struct serve_options {
  std::string bind = "127.0.0.1";
  uint16_t port = 0;
  uint32_t reactors = 1;             ///< event loops (shard-owning)
  std::string snapshot;
  std::string replica_of;            ///< HOST:PORT of the primary, or ""
  bool standby = false;              ///< empty read-only, awaits an invite
  std::vector<std::string> replicate_to;
  std::string trace_out;             ///< chrome trace JSON path, or ""
  uint32_t ack_replicas = 0;         ///< gate mutations on N subscriber acks
  uint32_t ack_timeout_ms = 250;     ///< ack-gate deadline before ok_async
  long replay_ring_mb = -1;          ///< delta window in MiB, -1 = default
  std::string wal_dir;               ///< WAL + checkpoint dir, "" = disabled
  std::string wal_fsync = "every";   ///< every | interval | none
  uint32_t wal_fsync_interval_ms = 50;
  long wal_segment_mb = 64;          ///< log rotation unit
  long checkpoint_every_mb = 256;    ///< checkpoint cadence in appended log
};

int serve(store::store_config cfg, const serve_options& opt) try {
  net::server_config scfg;
  scfg.bind_addr = opt.bind;
  scfg.port = opt.port;
  scfg.reactors = opt.reactors;
  scfg.snapshot_path = opt.snapshot;
  scfg.read_only = opt.standby || !opt.replica_of.empty();
  scfg.invite = opt.replicate_to;
  scfg.ack_replicas = opt.ack_replicas;
  scfg.ack_timeout_ms = opt.ack_timeout_ms;
  if (opt.replay_ring_mb >= 0)
    scfg.replay_ring_bytes =
        static_cast<size_t>(opt.replay_ring_mb) << 20;
  // Naming the primary arms feed supervision: on a lost feed the event
  // loop reconnects (jittered backoff) and re-syncs by delta or snapshot.
  scfg.feed_addr = opt.replica_of;

  std::unique_ptr<persist::durability_engine> dur;
  if (!opt.wal_dir.empty()) {
    persist::wal_config wcfg;
    wcfg.dir = opt.wal_dir;
    wcfg.fsync = persist::parse_fsync_policy(opt.wal_fsync);
    wcfg.fsync_interval_ms = opt.wal_fsync_interval_ms;
    wcfg.segment_bytes = static_cast<size_t>(opt.wal_segment_mb) << 20;
    wcfg.checkpoint_every_bytes =
        static_cast<size_t>(opt.checkpoint_every_mb) << 20;
    dur = std::make_unique<persist::durability_engine>(std::move(wcfg));
  }

  // Three ways to a starting store: a replica SYNCs it from its primary
  // (through the atomic snapshot write when --snapshot is set), a restart
  // recovers checkpoint + WAL tail (or reloads the legacy snapshot),
  // everything else starts fresh.
  std::optional<net::sync_result> sync;
  if (!opt.replica_of.empty()) {
    auto [host, rport] = net::parse_host_port(opt.replica_of);
    sync.emplace(net::sync_from(host, rport, opt.snapshot,
                                net::kDefaultMaxFrameBytes,
                                /*connect_retries=*/24));
    std::printf("store_server: synced %lu items (%.1f MiB) at seq %lu "
                "from %s\n",
                static_cast<unsigned long>(sync->store.size()),
                static_cast<double>(sync->snapshot_bytes) / 1048576,
                static_cast<unsigned long>(sync->repl_seq),
                opt.replica_of.c_str());
  }
  const bool restore = !sync && !opt.snapshot.empty() &&
                       std::filesystem::exists(opt.snapshot);
  store::filter_store st = sync ? std::move(sync->store)
                                : store::filter_store(cfg);
  if (sync && dur) {
    // The synced store is a fresh lineage from the primary: whatever the
    // WAL directory held describes something else and is dropped.  A
    // multi-lane primary's snapshot carried a lane table — seed one WAL
    // lane per entry so the tail replay stays per-lane contiguous.
    dur->reset(st, std::span<const uint64_t>(sync->lane_seqs));
  } else if (!sync && dur) {
    // Checkpoint + tail replay; a legacy --snapshot (with its v3-stamped
    // sequence when present) only seeds a virgin WAL directory.
    util::wall_timer rt;
    st = dur->recover([&]() -> std::pair<store::filter_store, uint64_t> {
      if (restore) {
        uint64_t seq = 0;
        auto boot = store::load_store(opt.snapshot, &seq);
        std::printf("store_server: seeded WAL from snapshot %s (seq %lu)\n",
                    opt.snapshot.c_str(), static_cast<unsigned long>(seq));
        return {std::move(boot), seq};
      }
      return {store::filter_store(cfg), 0};
    });
    const persist::durability_stats d = dur->stats();
    std::printf("store_server: recovered %lu items in %.3fs — checkpoint "
                "seq %lu + %lu WAL frames replayed (%lu bytes of torn "
                "tail truncated, %lu gaps)\n",
                static_cast<unsigned long>(st.size()), rt.seconds(),
                static_cast<unsigned long>(d.checkpoint_seq),
                static_cast<unsigned long>(d.recovery_replayed_frames),
                static_cast<unsigned long>(d.recovery_truncated_bytes),
                static_cast<unsigned long>(d.recovery_gaps));
  } else if (restore) {
    st = store::load_store(opt.snapshot);
    std::printf("store_server: restored %lu items from %s\n",
                static_cast<unsigned long>(st.size()), opt.snapshot.c_str());
  }

  scfg.durability = dur.get();
  net::server server(std::move(scfg), std::move(st));
  if (sync)
    server.attach_feed(std::move(sync->feed), std::move(sync->dec),
                       std::span<const uint64_t>(sync->lane_seqs));

  g_server.store(&server);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const char* role = !opt.replica_of.empty() ? " (replica)"
                     : opt.standby           ? " (standby replica)"
                                             : "";
  std::printf("store_server: backend=%s shards=%u reactors=%u listening "
              "on %s:%u%s%s%s\n",
              store::backend_name(server.store().config().backend),
              server.store().num_shards(), opt.reactors, opt.bind.c_str(),
              static_cast<unsigned>(server.port()),
              opt.snapshot.empty() ? "" : " snapshot=",
              opt.snapshot.c_str(), role);
  std::fflush(stdout);

  server.run();
  g_server.store(nullptr);

  if (g_signal)
    std::printf("store_server: caught signal %d, shutting down\n",
                static_cast<int>(g_signal));
  if (dur) {
    // Orderly exit: fold everything into a checkpoint so the next start
    // replays nothing.  (A crash skips this and replays the tail.)
    dur->checkpoint(server.store());
    const persist::durability_stats d = dur->stats();
    std::printf("store_server: checkpointed seq %lu (%.1f MiB) to %s\n",
                static_cast<unsigned long>(d.checkpoint_seq),
                static_cast<double>(d.checkpoint_bytes) / 1048576,
                opt.wal_dir.c_str());
  }
  if (!opt.snapshot.empty()) {
    store::save_store(server.store(), opt.snapshot,
                      server.stats().repl_seq);
    std::printf("store_server: persisted %lu items to %s\n",
                static_cast<unsigned long>(server.store().size()),
                opt.snapshot.c_str());
  }

  if (!opt.trace_out.empty()) {
    // The loop has exited, so reading the ring off-thread is safe here.
    const std::string json = server.trace_json();
    if (std::FILE* out = std::fopen(opt.trace_out.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), out);
      std::fclose(out);
      std::printf("store_server: wrote trace (%zu bytes) to %s\n",
                  json.size(), opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "store_server: cannot write trace to %s\n",
                   opt.trace_out.c_str());
    }
  }

  auto stats = server.stats();
  std::printf("store_server: served %lu frames / %lu keys over %lu "
              "connections (%lu protocol errors, %.1f MiB in, %.1f MiB "
              "out)\n",
              static_cast<unsigned long>(stats.frames_served),
              static_cast<unsigned long>(stats.keys_processed),
              static_cast<unsigned long>(stats.connections_accepted),
              static_cast<unsigned long>(stats.protocol_errors),
              static_cast<double>(stats.bytes_in) / 1048576,
              static_cast<double>(stats.bytes_out) / 1048576);
  if (stats.frames_forwarded || stats.feed_applied)
    std::printf("store_server: replication seq %lu, %lu forwarded to %lu "
                "subscribers (%lu drops), feed applied %lu (last seq %lu, "
                "%lu gaps, lost %lu)\n",
                static_cast<unsigned long>(stats.repl_seq),
                static_cast<unsigned long>(stats.frames_forwarded),
                static_cast<unsigned long>(stats.subscribers),
                static_cast<unsigned long>(stats.subscriber_drops),
                static_cast<unsigned long>(stats.feed_applied),
                static_cast<unsigned long>(stats.feed_last_seq),
                static_cast<unsigned long>(stats.feed_gaps),
                static_cast<unsigned long>(stats.feed_lost));
  if (stats.feed_reconnects || stats.resyncs_delta || stats.resyncs_snapshot ||
      stats.ack_waits)
    std::printf("store_server: self-healing: %lu feed reconnects (%lu "
                "failures), %lu delta + %lu snapshot re-syncs, %lu ack "
                "waits (%lu degraded)\n",
                static_cast<unsigned long>(stats.feed_reconnects),
                static_cast<unsigned long>(stats.reconnect_failures),
                static_cast<unsigned long>(stats.resyncs_delta),
                static_cast<unsigned long>(stats.resyncs_snapshot),
                static_cast<unsigned long>(stats.ack_waits),
                static_cast<unsigned long>(stats.ack_degraded));
  if (dur) {
    const persist::durability_stats d = dur->stats();
    std::printf("store_server: durability: %lu frames (%.1f MiB) logged in "
                "%lu segments (%lu fsyncs, fsync=%s), %lu checkpoints, "
                "%lu WAL deltas served\n",
                static_cast<unsigned long>(d.wal_frames),
                static_cast<double>(d.wal_bytes) / 1048576,
                static_cast<unsigned long>(d.segments_rotated),
                static_cast<unsigned long>(d.wal_fsyncs),
                persist::fsync_policy_name(dur->policy()),
                static_cast<unsigned long>(d.checkpoints),
                static_cast<unsigned long>(stats.wal_deltas_served));
  }
  std::printf("%s\n", store::report_json(server.store()).c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "store_server: %s\n", e.what());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = 4;
  cfg.capacity = 1 << 20;
  serve_options opt;
  long port = 0, rounds = -1;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    long v = 0;
    if (!std::strcmp(a, "--backend")) {
      const char* b = next();
      if (!b) return usage();
      if (!std::strcmp(b, "tcf")) cfg.backend = store::backend_kind::tcf;
      else if (!std::strcmp(b, "gqf")) cfg.backend = store::backend_kind::gqf;
      else if (!std::strcmp(b, "bbf"))
        cfg.backend = store::backend_kind::blocked_bloom;
      else if (!std::strcmp(b, "btcf"))
        cfg.backend = store::backend_kind::bulk_tcf;
      else
        return usage();
    } else if (!std::strcmp(a, "--shards")) {
      const char* s = next();
      if (!s || !parse_arg(s, 1, store::kMaxShards, &v)) return usage();
      cfg.num_shards = static_cast<uint32_t>(v);
    } else if (!std::strcmp(a, "--capacity")) {
      const char* s = next();
      if (!s || !parse_arg(s, 1024, 1L << 30, &v)) return usage();
      cfg.capacity = static_cast<uint64_t>(v);
    } else if (!std::strcmp(a, "--reactors")) {
      const char* s = next();
      if (!s || !parse_arg(s, 1, net::kMaxLanes, &v)) return usage();
      opt.reactors = static_cast<uint32_t>(v);
    } else if (!std::strcmp(a, "--bind")) {
      const char* s = next();
      if (!s) return usage();
      opt.bind = s;
    } else if (!std::strcmp(a, "--port")) {
      const char* s = next();
      if (!s || !parse_arg(s, 0, 65535, &port)) return usage();
    } else if (!std::strcmp(a, "--snapshot")) {
      const char* s = next();
      if (!s) return usage();
      opt.snapshot = s;
    } else if (!std::strcmp(a, "--selftest")) {
      const char* s = next();
      if (!s || !parse_arg(s, 1, 1000000, &rounds)) return usage();
    } else if (!std::strcmp(a, "--replica-of")) {
      const char* s = next();
      if (!s) return usage();
      opt.replica_of = s;
    } else if (!std::strcmp(a, "--replica")) {
      opt.standby = true;
    } else if (!std::strcmp(a, "--replicate-to")) {
      const char* s = next();
      if (!s) return usage();
      opt.replicate_to.push_back(s);
    } else if (!std::strcmp(a, "--ack-replicas")) {
      const char* s = next();
      if (!s || !parse_arg(s, 0, 1024, &v)) return usage();
      opt.ack_replicas = static_cast<uint32_t>(v);
    } else if (!std::strcmp(a, "--ack-timeout-ms")) {
      const char* s = next();
      if (!s || !parse_arg(s, 1, 600000, &v)) return usage();
      opt.ack_timeout_ms = static_cast<uint32_t>(v);
    } else if (!std::strcmp(a, "--replay-ring-mb")) {
      const char* s = next();
      if (!s || !parse_arg(s, 0, 4096, &v)) return usage();
      opt.replay_ring_mb = v;
    } else if (!std::strcmp(a, "--trace-out")) {
      const char* s = next();
      if (!s) return usage();
      opt.trace_out = s;
    } else if (!std::strcmp(a, "--wal-dir")) {
      const char* s = next();
      if (!s) return usage();
      opt.wal_dir = s;
    } else if (!std::strcmp(a, "--wal-fsync")) {
      const char* s = next();
      if (!s || (std::strcmp(s, "every") && std::strcmp(s, "interval") &&
                 std::strcmp(s, "none")))
        return usage();
      opt.wal_fsync = s;
    } else if (!std::strcmp(a, "--wal-fsync-interval-ms")) {
      const char* s = next();
      if (!s || !parse_arg(s, 1, 600000, &v)) return usage();
      opt.wal_fsync_interval_ms = static_cast<uint32_t>(v);
    } else if (!std::strcmp(a, "--wal-segment-mb")) {
      const char* s = next();
      if (!s || !parse_arg(s, 1, 4096, &v)) return usage();
      opt.wal_segment_mb = v;
    } else if (!std::strcmp(a, "--checkpoint-every-mb")) {
      const char* s = next();
      if (!s || !parse_arg(s, 0, 65536, &v)) return usage();
      opt.checkpoint_every_mb = v;
    } else {
      return usage();
    }
  }
  // A replica cannot also be a standby, and a standby's store arrives by
  // invite — sanity-check the spec strings up front so a typo dies at
  // startup, not mid-topology.
  if (!opt.replica_of.empty() && opt.standby) return usage();
  try {
    if (!opt.replica_of.empty()) net::parse_host_port(opt.replica_of);
    for (const auto& spec : opt.replicate_to) net::parse_host_port(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store_server: %s\n", e.what());
    return usage();
  }

  if (rounds > 0) return selftest(cfg, static_cast<int>(rounds));
  opt.port = static_cast<uint16_t>(port);
  return serve(cfg, opt);
}

namespace {

int selftest(store::store_config cfg, int rounds) try {
  store::filter_store server(cfg);
  const bool deletes = server.shard_at(0).filter().supports_deletes();
  std::printf("store_server: selftest backend=%s shards=%u capacity=%lu "
              "deletes=%s\n",
              store::backend_name(cfg.backend), server.num_shards(),
              static_cast<unsigned long>(cfg.capacity),
              deletes ? "yes" : "no");

  // Requests draw keys Zipf(1.1) from a universe half the store capacity —
  // hot keys repeat, as production traffic does.
  util::zipf_generator zipf(cfg.capacity / 2, 1.1, 42);
  constexpr uint64_t kBatch = 1 << 15;
  store::batch_result lifetime;
  double total_seconds = 0;

  for (int round = 0; round < rounds; ++round) {
    std::vector<store::op> batch;
    batch.reserve(kBatch);
    for (uint64_t i = 0; i < kBatch; ++i) {
      uint64_t key = util::murmur64(zipf.next() + 1);
      uint64_t dice = (round * kBatch + i) % 100;
      if (dice < 70)
        batch.push_back(store::make_query(key));
      else if (dice < 95 || !deletes)
        batch.push_back(store::make_insert(key));
      else
        batch.push_back(store::make_erase(key));
    }

    util::wall_timer timer;
    auto result = server.apply(batch);
    double secs = timer.seconds();
    total_seconds += secs;
    lifetime += result;
    // Maintenance between rounds (host-phased): hot shards that crossed
    // the pressure thresholds grow an overflow child before the next
    // batch arrives.
    auto maint = server.maintain();
    std::printf("round %2d: %5.1f Mops/s  (hit rate %4.1f%%, %lu live "
                "items, depth %u%s)\n",
                round, util::mops(kBatch, secs),
                result.query_hits + result.query_misses
                    ? 100.0 * static_cast<double>(result.query_hits) /
                          static_cast<double>(result.query_hits +
                                              result.query_misses)
                    : 0.0,
                static_cast<unsigned long>(server.size()), maint.max_depth,
                maint.shards_grown ? ", grew" : "");
  }

  // Refused inserts on the TCF are Zipf hot keys flooding their two
  // candidate blocks with duplicate fingerprints — the hot-key storm the
  // paper's counting path absorbs (§5.4); maintenance turns what is left
  // into cascade growth instead of a refusal storm.
  std::printf("\nlifetime: %lu ops in %.2fs (%.1f Mops/s), %lu inserted, "
              "%lu erased, %lu refused\n",
              static_cast<unsigned long>(lifetime.total_ops()), total_seconds,
              util::mops(lifetime.total_ops(), total_seconds),
              static_cast<unsigned long>(lifetime.inserted),
              static_cast<unsigned long>(lifetime.erased),
              static_cast<unsigned long>(lifetime.insert_failed));

  // Machine-readable closing report — same emitter the STATS opcode
  // serves, so selftest output and the wire agree field for field.
  std::printf("%s\n", store::report_json(server).c_str());

  // -- Restart drill: persist, reload, spot-check ---------------------------
  std::string path = "/tmp/store_server.gfs";
  util::wall_timer io_timer;
  store::save_store(server, path);
  auto restarted = store::load_store(path);
  std::printf("\nrestart drill: saved+reloaded %.1f MiB in %.3fs\n",
              static_cast<double>(server.memory_bytes()) / 1048576,
              io_timer.seconds());

  uint64_t mismatches = 0;
  for (uint64_t probe = 0; probe < 10000; ++probe) {
    uint64_t key = util::murmur64(probe * 7919 + 1);
    if (server.contains(key) != restarted.contains(key)) ++mismatches;
  }
  std::printf("restart verification: %lu answer mismatches (must be 0)\n",
              static_cast<unsigned long>(mismatches));
  std::remove(path.c_str());
  return mismatches ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "store_server: %s\n", e.what());
  return 2;
}

}  // namespace
