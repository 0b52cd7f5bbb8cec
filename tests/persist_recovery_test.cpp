// The durability engine wired into net::server: every applied mutating
// batch (auto-maintain's synthesized frames included) lands in the WAL at
// the same point it feeds subscribers, restart = checkpoint + tail replay
// through the store's normal apply path, and a reconnecting replica whose
// resume position has wrapped out of the replication log's in-memory tail
// is served its delta back from disk — exactly, or by snapshot when the
// disk copy is damaged — under scripted fault injection, not sleeps.
// Engine-level attack surface (torn tails, SIGKILL drills, manifest
// cross-checks) lives in tests/persist_wal_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/fault.h"
#include "net/frame.h"
#include "net/lane.h"
#include "net/replication.h"
#include "net/server.h"
#include "persist/durability.h"
#include "persist/wal.h"
#include "store/store.h"
#include "store/store_io.h"
#include "util/xorwow.h"

using namespace gf;

namespace {

// Byte-identity across restarts and replicas requires a deterministic
// engine; pin the pool to one worker before its lazy construction (same
// rationale as net_fault_test.cpp).
const bool kSerialPool = [] {
  ::setenv("GF_NUM_WORKERS", "1", /*overwrite=*/1);
  return true;
}();

store::store_config small_config(uint64_t capacity = 1 << 16) {
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = 4;
  cfg.capacity = capacity;
  return cfg;
}

std::string fresh_dir(const std::string& tag) {
  std::string dir = std::string(::testing::TempDir()) + "gf_rec_" + tag +
                    "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

persist::wal_config wal_at(const std::string& dir) {
  persist::wal_config cfg;
  cfg.dir = dir;
  cfg.fsync = persist::fsync_policy::none;  // speed; crash realism is the
                                            // engine suite's business
  cfg.checkpoint_every_bytes = 0;           // no surprise checkpoints
  return cfg;
}

persist::durability_engine::bootstrap_fn fresh_boot(
    store::backend_kind backend = store::backend_kind::tcf) {
  return [backend] {
    store::store_config cfg = small_config();
    cfg.backend = backend;
    return std::pair<store::filter_store, uint64_t>(
        store::filter_store(cfg), 0);
  };
}

struct fault_guard {
  fault_guard() { reset(); }
  ~fault_guard() { reset(); }
  static void reset() {
    net::fault_engine::instance().disarm_all();
    net::fault_engine::instance().clear_connect_plans();
  }
};

struct live_server {
  net::server srv;
  std::thread loop;
  bool stopped = false;

  explicit live_server(store::filter_store st, net::server_config cfg = {})
      : srv(std::move(cfg), std::move(st)) {
    loop = std::thread([this] { srv.run(); });
  }
  live_server(store::filter_store st, net::server_config cfg,
              net::socket_fd feed, net::frame_decoder dec, uint64_t next_seq)
      : srv(std::move(cfg), std::move(st)) {
    srv.attach_feed(std::move(feed), std::move(dec), next_seq);
    loop = std::thread([this] { srv.run(); });
  }
  live_server(store::filter_store st, net::server_config cfg,
              net::socket_fd feed, net::frame_decoder dec,
              std::span<const uint64_t> lane_lasts)
      : srv(std::move(cfg), std::move(st)) {
    srv.attach_feed(std::move(feed), std::move(dec), lane_lasts);
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

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 15000) {
  for (int waited = 0; waited < timeout_ms; waited += 2) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

bool converged(live_server& primary, live_server& replica) {
  return wait_until([&] {
    return replica.srv.stats().repl_seq == primary.srv.stats().repl_seq;
  });
}

net::server_config read_only_config() {
  net::server_config c;
  c.read_only = true;
  return c;
}

/// Flip one payload byte of the frame stamped `seq` in the WAL directory's
/// lane-0 segments (its CRC no longer matches); false when no segment
/// holds that frame.
bool corrupt_logged_frame(const std::string& dir, uint64_t seq) {
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".seg") continue;
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    const std::vector<uint8_t> bytes(std::istreambuf_iterator<char>(f), {});
    // Walk the frames: u32 length at +0, u64 sequence at +20, payload at
    // +28 (net/frame.h layout).
    size_t off = persist::kSegmentHeaderBytes;
    while (off + net::kFrameOverhead <= bytes.size()) {
      const size_t len = net::get_u32(bytes.data() + off);
      if (net::get_u64(bytes.data() + off + 20) == seq &&
          len > net::kHeaderTailBytes + 4) {
        const size_t at = off + 4 + net::kHeaderTailBytes + 1;
        const char flipped = static_cast<char>(bytes[at] ^ 0x40);
        f.clear();
        f.seekp(static_cast<std::streamoff>(at));
        f.write(&flipped, 1);
        f.flush();
        return f.good();
      }
      off += 4 + len;
    }
  }
  return false;
}

net::fault_plan one_cut(uint64_t at_bytes) {
  net::fault_plan plan;
  plan.events.push_back(
      {net::fault_kind::cut, net::fault_dir::recv, at_bytes, 0});
  return plan;
}

/// faulty_connector(), but every connect first waits for `opened` (at most
/// 15 s, so a test that fails before opening it cannot hang its replica's
/// loop).  A supervised replica reconnects on its loop thread, so the test,
/// not the backoff timer, decides what the primary has logged by the time
/// the replica resumes.
net::connect_fn gated_connector(std::shared_future<void> opened) {
  return [opened = std::move(opened), inner = net::faulty_connector()](
             const std::string& host, uint16_t port) {
    opened.wait_for(std::chrono::seconds(15));
    return inner(host, port);
  };
}

/// A read-only replica config supervised against `primary`: it reconnects
/// after 2-100 ms through `connector`.
net::server_config supervised_config(const net::server& primary,
                                     net::connect_fn connector) {
  net::server_config rcfg;
  rcfg.read_only = true;
  rcfg.feed_addr = "127.0.0.1:" + std::to_string(primary.port());
  rcfg.reconnect_base_ms = 2;
  rcfg.reconnect_max_ms = 100;
  rcfg.reconnect_jitter_seed = 0x5eed;
  rcfg.connector = std::move(connector);
  return rcfg;
}

}  // namespace

// A served workload — inserts, counted inserts, erases, and the
// auto-maintain frames the server synthesizes — restarts byte-identical
// from checkpoint + WAL tail, with the stream position continued.  The
// counted inserts and erases take both shard paths (bulk and point), and
// at 2 reactors every lane replays its own parts and ranged MAINTAINs.  The
// GQF run makes the counts themselves part of the bytes.
namespace {
void restart_byte_identical(store::backend_kind backend, uint32_t reactors) {
  const std::string tag = std::string(store::backend_name(backend)) + "_r" +
                          std::to_string(reactors);
  SCOPED_TRACE(tag);
  const std::string dir = fresh_dir("server_ident_" + tag);
  std::string expected;
  uint64_t final_seq = 0;
  {
    persist::durability_engine eng(wal_at(dir));
    auto st = eng.recover(fresh_boot(backend));
    net::server_config cfg;
    cfg.reactors = reactors;
    cfg.durability = &eng;
    cfg.maintain_every = 4;  // force synthesized MAINTAIN frames early
    live_server primary{std::move(st), cfg};
    auto cli = primary.connect();

    auto keys = util::hashed_xorwow_items(24000, 4201);
    std::span<const uint64_t> span(keys);
    for (size_t lo = 0; lo < keys.size(); lo += 4000)
      cli.insert(span.subspan(lo, 4000));
    // Counts above 1 take the point path, all ones the bulk path.
    cli.insert_counted(span.subspan(0, 2000),
                       std::vector<uint64_t>(2000, 3));
    cli.insert_counted(span.subspan(2000, 2000),
                       std::vector<uint64_t>(2000, 1));
    // A bulk-sized erase, then one with a few keys per shard (point path).
    cli.erase(span.subspan(4000, 2000));
    static_assert(12 < 4 * store::shard::kBulkRunMin);
    cli.erase(span.subspan(8000, 12));

    primary.stop();
    final_seq = primary.srv.stats().repl_seq;
    ASSERT_GT(final_seq, 9u);  // the 9 client batches + auto-maintains
    expected = store::serialize_store(primary.srv.store(), final_seq);
  }

  persist::durability_engine eng(wal_at(dir));
  auto recovered = eng.recover(fresh_boot(backend));
  EXPECT_EQ(eng.stats().recovery_replayed_frames, final_seq);
  EXPECT_EQ(eng.last_seq(), final_seq);
  EXPECT_TRUE(store::serialize_store(recovered, eng.last_seq()) == expected)
      << "recovered store bytes differ";

  // A server booted on the recovered pair continues the lineage: its
  // stream position is the WAL's, not 0.  Each reactor whose shards the
  // batch touches logs one part.
  auto more = util::hashed_xorwow_items(100, 4202);
  const uint32_t per_reactor = recovered.num_shards() / reactors;
  std::vector<bool> touched(reactors, false);
  for (uint64_t k : more) touched[recovered.shard_of(k) / per_reactor] = true;
  const auto parts = static_cast<uint64_t>(
      std::count(touched.begin(), touched.end(), true));
  net::server_config cfg;
  cfg.reactors = reactors;
  cfg.durability = &eng;
  live_server reborn{std::move(recovered), cfg};
  EXPECT_EQ(reborn.srv.stats().repl_seq, final_seq);
  auto cli = reborn.connect();
  cli.insert(more);
  EXPECT_TRUE(wait_until(
      [&] { return reborn.srv.stats().repl_seq == final_seq + parts; }));
  reborn.stop();
  std::filesystem::remove_all(dir);
}
}  // namespace

TEST(PersistRecovery, ServerRestartsByteIdenticalWithLineage) {
  for (auto backend : {store::backend_kind::tcf, store::backend_kind::gqf})
    for (uint32_t reactors : {1u, 2u})
      restart_byte_identical(backend, reactors);
}

// O(delta) restart: after a mid-workload checkpoint, recovery replays
// exactly the frames above the checkpoint sequence — observable in
// gf_recovery_replayed_frames — and still lands byte-identical.
TEST(PersistRecovery, RestartReplaysOnlyFramesAboveTheCheckpoint) {
  const std::string dir = fresh_dir("delta_restart");
  std::string expected;
  uint64_t final_seq = 0, ckpt_seq = 0;
  {
    persist::durability_engine eng(wal_at(dir));
    auto st = eng.recover(fresh_boot());
    net::server_config cfg;
    cfg.durability = &eng;
    live_server primary{std::move(st), cfg};
    auto cli = primary.connect();
    auto keys = util::hashed_xorwow_items(20000, 4301);
    std::span<const uint64_t> span(keys);
    for (size_t lo = 0; lo < 12000; lo += 4000)
      cli.insert(span.subspan(lo, 4000));
    primary.stop();
    ckpt_seq = primary.srv.stats().repl_seq;
    eng.checkpoint(primary.srv.store());  // loop stopped: engine is ours
    ASSERT_EQ(eng.stats().checkpoint_seq, ckpt_seq);

    // Tail: more traffic after the checkpoint.
    net::server_config cfg2;
    cfg2.durability = &eng;
    live_server cont{std::move(primary.srv.store()), cfg2};
    auto cli2 = cont.connect();
    for (size_t lo = 12000; lo < 20000; lo += 4000)
      cli2.insert(span.subspan(lo, 4000));
    cont.stop();
    final_seq = cont.srv.stats().repl_seq;
    ASSERT_GT(final_seq, ckpt_seq);
    expected = store::serialize_store(cont.srv.store(), final_seq);
  }

  persist::durability_engine eng(wal_at(dir));
  auto recovered = eng.recover(fresh_boot());
  // The acceptance bar: only the tail replayed.
  EXPECT_EQ(eng.stats().recovery_replayed_frames, final_seq - ckpt_seq);
  EXPECT_EQ(eng.stats().checkpoint_seq, ckpt_seq);
  EXPECT_EQ(store::serialize_store(recovered, eng.last_seq()), expected);

  // The metric a CI smoke scrapes reports the same number.
  net::server_config cfg;
  cfg.durability = &eng;
  net::server reborn(std::move(cfg), std::move(recovered));
  const std::string metrics = reborn.metrics_text();
  EXPECT_NE(metrics.find("gf_recovery_replayed_frames " +
                         std::to_string(final_seq - ckpt_seq)),
            std::string::npos)
      << metrics.substr(0, 512);
  std::filesystem::remove_all(dir);
}

// The tentpole integration: a replica resuming after the primary's
// in-memory replay ring has wrapped is served its delta from the disk WAL
// — no snapshot moves — and converges byte-identical.
TEST(PersistRecovery, WrappedRingResumeServedAsDeltaFromDiskWal) {
  const std::string dir = fresh_dir("wal_delta");
  persist::durability_engine eng(wal_at(dir));
  auto st = eng.recover(fresh_boot());

  // A ring smaller than one workload frame: any resume with more than one
  // missed frame is uncoverable in memory (net_fault_test proves that
  // falls back to snapshot without a WAL).
  net::server_config pcfg;
  pcfg.replay_ring_bytes = 2048;
  pcfg.durability = &eng;
  live_server primary{std::move(st), pcfg};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(8000, 4401));

  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  const uint64_t last_applied = sr.repl_seq;
  sr.feed.reset();  // lose the feed on purpose

  // Far more missed traffic than the ring can hold.
  auto missed = util::hashed_xorwow_items(12000, 4402);
  std::span<const uint64_t> span(missed);
  for (size_t lo = 0; lo < missed.size(); lo += 4000)
    cli.insert(span.subspan(lo, 4000));

  auto rr = net::sync_resume("127.0.0.1", primary.srv.port(), last_applied);
  ASSERT_EQ(rr.kind, net::resync_kind::delta)
      << "wrapped ring should have been backstopped by the WAL";
  EXPECT_FALSE(rr.store.has_value());
  EXPECT_EQ(rr.snapshot_bytes, 0u);
  EXPECT_EQ(rr.resume_from, last_applied);
  EXPECT_EQ(primary.srv.stats().deltas_served, 1u);
  EXPECT_EQ(primary.srv.stats().wal_deltas_served, 1u);

  live_server replica(std::move(sr.store),
                      [&] {
                        net::server_config c;
                        c.read_only = true;
                        return c;
                      }(),
                      std::move(rr.feed), std::move(rr.dec),
                      last_applied + 1);
  cli.insert(util::hashed_xorwow_items(2000, 4403));
  ASSERT_TRUE(converged(primary, replica));
  EXPECT_EQ(replica.srv.stats().feed_gaps, 0u);

  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
  std::filesystem::remove_all(dir);
}

// Same property under the supervisor and scripted fault injection: the
// feed is cut mid-workload, the missed traffic overflows the ring, and
// the replica's self-healing re-sync comes back as a WAL-served delta —
// where a primary without a WAL is forced to move a whole snapshot.  The
// reconnect is held until the whole workload is logged: a replica that
// resumes earlier can find its missed range still in the ring (the next
// test).
TEST(PersistRecovery, SupervisedReplicaResyncsFromDiskAfterRingWrap) {
  fault_guard guard;
  const std::string dir = fresh_dir("supervised");
  persist::durability_engine eng(wal_at(dir));
  auto st = eng.recover(fresh_boot());

  net::server_config pcfg;
  pcfg.replay_ring_bytes = 2048;
  pcfg.durability = &eng;
  live_server primary{std::move(st), pcfg};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(8000, 4501));

  // Bootstrap a supervised replica whose feed dies after 30000 stream
  // bytes; the reconnect waits for `reconnect`, then draws an empty plan
  // queue and lives.
  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  net::fault_engine::instance().arm(sr.feed.get(), one_cut(30000));
  std::promise<void> reconnect;
  live_server replica(
      std::move(sr.store),
      supervised_config(primary.srv,
                        gated_connector(reconnect.get_future().share())),
      std::move(sr.feed), std::move(sr.dec), sr.repl_seq + 1);

  // Mixed traffic well past the 30000-byte cut AND far past the 2 KiB
  // ring: when the supervisor resumes, only the disk WAL can cover it.
  auto keys = util::hashed_xorwow_items(40000, 4502);
  std::span<const uint64_t> span(keys);
  for (size_t lo = 0; lo < keys.size(); lo += 4000)
    cli.insert(span.subspan(lo, 4000));
  cli.erase(span.subspan(0, 1000));
  reconnect.set_value();
  ASSERT_TRUE(
      wait_until([&] { return replica.srv.stats().feed_lost >= 1; }))
      << "scripted cut never fired";

  ASSERT_TRUE(converged(primary, replica));
  auto stats = replica.srv.stats();
  EXPECT_EQ(stats.feed_lost, 1u);
  EXPECT_EQ(stats.feed_reconnects, 1u);
  EXPECT_EQ(stats.resyncs_delta, 1u);     // the WAL covered the gap
  EXPECT_EQ(stats.resyncs_snapshot, 0u);  // no snapshot moved
  EXPECT_EQ(stats.feed_gaps, 0u);
  EXPECT_EQ(primary.srv.stats().wal_deltas_served, 1u);

  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
  std::filesystem::remove_all(dir);
}

// The race the gate above closes, made deterministic: the feed dies inside
// the first frame after the bootstrap, and nothing follows that frame until
// the replica has resumed.  The ring always keeps the newest frame, so the
// one-frame delta is served from memory and the WAL serves nothing.
TEST(PersistRecovery, SupervisedReplicaResumingAtOnceIsServedFromRing) {
  fault_guard guard;
  const std::string dir = fresh_dir("supervised_ring");
  persist::durability_engine eng(wal_at(dir));
  auto st = eng.recover(fresh_boot());

  net::server_config pcfg;
  pcfg.replay_ring_bytes = 2048;
  pcfg.durability = &eng;
  live_server primary{std::move(st), pcfg};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(8000, 4601));

  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  net::fault_engine::instance().arm(sr.feed.get(), one_cut(30000));
  live_server replica(std::move(sr.store),
                      supervised_config(primary.srv, net::faulty_connector()),
                      std::move(sr.feed), std::move(sr.dec),
                      sr.repl_seq + 1);

  // One 4000-key frame (over 32000 bytes) carries the stream past the cut.
  auto keys = util::hashed_xorwow_items(12000, 4602);
  std::span<const uint64_t> span(keys);
  cli.insert(span.subspan(0, 4000));
  ASSERT_TRUE(
      wait_until([&] { return replica.srv.stats().feed_reconnects >= 1; }))
      << "the replica never resumed";
  ASSERT_TRUE(converged(primary, replica));
  auto stats = replica.srv.stats();
  EXPECT_EQ(stats.feed_lost, 1u);
  EXPECT_EQ(stats.resyncs_delta, 1u);
  EXPECT_EQ(stats.resyncs_snapshot, 0u);
  EXPECT_EQ(primary.srv.stats().deltas_served, 1u);
  EXPECT_EQ(primary.srv.stats().wal_deltas_served, 0u);

  cli.insert(span.subspan(4000, 8000));
  ASSERT_TRUE(converged(primary, replica));
  EXPECT_EQ(replica.srv.stats().feed_gaps, 0u);
  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
  std::filesystem::remove_all(dir);
}

// A WAL-served delta never promises frames it cannot send: with one logged
// frame of the missed range corrupt on disk, the log cannot replay the
// range whole, so the resume falls back to a snapshot — and the replica
// still converges byte-identical.
TEST(PersistRecovery, CorruptWalFrameFallsBackToSnapshot) {
  const std::string dir = fresh_dir("wal_corrupt");
  persist::durability_engine eng(wal_at(dir));
  auto st = eng.recover(fresh_boot());

  net::server_config pcfg;
  pcfg.replay_ring_bytes = 2048;  // smaller than one workload frame
  pcfg.durability = &eng;
  live_server primary{std::move(st), pcfg};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(8000, 4701));

  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  const uint64_t last_applied = sr.repl_seq;
  sr.feed.reset();  // lose the feed on purpose

  auto missed = util::hashed_xorwow_items(12000, 4702);
  std::span<const uint64_t> span(missed);
  for (size_t lo = 0; lo < missed.size(); lo += 4000)
    cli.insert(span.subspan(lo, 4000));
  ASSERT_EQ(primary.srv.stats().repl_seq, last_applied + 3);
  ASSERT_TRUE(corrupt_logged_frame(dir, last_applied + 2));

  auto rr = net::sync_resume("127.0.0.1", primary.srv.port(), last_applied);
  ASSERT_EQ(rr.kind, net::resync_kind::snapshot)
      << "a delta over a corrupt WAL frame would promise frames it never "
         "sends";
  ASSERT_TRUE(rr.store.has_value());
  EXPECT_EQ(primary.srv.stats().deltas_served, 0u);
  EXPECT_EQ(primary.srv.stats().wal_deltas_served, 0u);

  live_server replica(std::move(*rr.store), read_only_config(),
                      std::move(rr.feed), std::move(rr.dec),
                      rr.repl_seq + 1);
  cli.insert(util::hashed_xorwow_items(2000, 4703));
  ASSERT_TRUE(converged(primary, replica));
  EXPECT_EQ(replica.srv.stats().feed_gaps, 0u);

  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
  std::filesystem::remove_all(dir);
}

// One resume, two tiers: on a 2-reactor primary, lane 1's missed frames
// have wrapped out of its memory tail and come back from the WAL while
// lane 0's are still in memory.  The log answers each lane once and the
// replica is caught up by a single delta.
TEST(PersistRecovery, MultiLaneResumeMixesMemoryAndDiskTiers) {
  const std::string dir = fresh_dir("mixed_tiers");
  persist::durability_engine eng(wal_at(dir));
  auto st = eng.recover(fresh_boot());

  net::server_config pcfg;
  pcfg.reactors = 2;
  pcfg.replay_ring_bytes = 2 * 16384;  // a 16 KiB tail per lane
  pcfg.durability = &eng;
  live_server primary{std::move(st), pcfg};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(8000, 4801));

  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  ASSERT_EQ(sr.lane_seqs.size(), 2u);
  const std::vector<uint64_t> lasts = sr.lane_seqs;
  sr.feed.reset();  // lose the feed on purpose

  // Reactor k owns shards [2k, 2k + 2) of the 4, and replicates on lane k.
  std::vector<uint64_t> lane0, lane1;
  for (uint64_t k : util::hashed_xorwow_items(20000, 4802))
    (primary.srv.store().shard_of(k) < 2 ? lane0 : lane1).push_back(k);
  ASSERT_GE(lane0.size(), 500u);
  ASSERT_GE(lane1.size(), 6000u);
  // Lane 1: three ~16 KB frames, past its tail.  Lane 0: one ~4 KB frame,
  // inside its tail.
  std::span<const uint64_t> one(lane1);
  for (size_t lo = 0; lo < 6000; lo += 2000) cli.insert(one.subspan(lo, 2000));
  cli.insert(std::span<const uint64_t>(lane0).first(500));

  auto rr = net::sync_resume("127.0.0.1", primary.srv.port(),
                             std::span<const uint64_t>(lasts));
  ASSERT_EQ(rr.kind, net::resync_kind::delta)
      << "every lane was replayable from one tier or the other";
  EXPECT_FALSE(rr.store.has_value());
  ASSERT_EQ(rr.lane_seqs.size(), 2u);
  EXPECT_EQ(net::lane_local(rr.lane_seqs[0]) - net::lane_local(lasts[0]),
            1u);
  EXPECT_EQ(net::lane_local(rr.lane_seqs[1]) - net::lane_local(lasts[1]),
            3u);
  EXPECT_EQ(primary.srv.stats().deltas_served, 1u);
  EXPECT_EQ(primary.srv.stats().wal_deltas_served, 1u);

  live_server replica(std::move(sr.store), read_only_config(),
                      std::move(rr.feed), std::move(rr.dec),
                      std::span<const uint64_t>(lasts));
  cli.insert(util::hashed_xorwow_items(2000, 4803));
  ASSERT_TRUE(converged(primary, replica));
  EXPECT_EQ(replica.srv.stats().feed_gaps, 0u);
  EXPECT_EQ(replica.srv.stats().resyncs_snapshot, 0u);

  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
  std::filesystem::remove_all(dir);
}
