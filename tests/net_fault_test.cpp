// Self-healing replication under deterministic fault injection
// (net/fault.h + the supervised feed in net/server.cpp):
//   * a supervised replica whose feed is cut five times mid-workload
//     reconnects with backoff, re-syncs by delta each time, and ends
//     byte-identical to its primary;
//   * a delta re-sync replays exactly the missed frames — no snapshot
//     moves — while a wrapped log tail (no WAL) forces the snapshot
//     fallback;
//   * a primary restarted from its snapshot is back at sequence 0, so a
//     surviving replica's resume is answered by snapshot (never a bogus
//     delta against a different lineage) and the replica re-attaches;
//   * ack-gated writes release as ok when the replica acknowledges,
//     degrade to ok_async on the deadline or when no subscriber is
//     attached — and never hang a client;
//   * a corrupted payload byte condemns exactly the connection that
//     carried it (CRC), a partitioned or silent peer trips the typed
//     net::timeout_error, and short 1-byte reads still deliver frames.
//
// Every fault is a seeded script keyed on cumulative byte offsets —
// identical runs on every machine, no sleeps standing in for faults.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/codec.h"
#include "net/fault.h"
#include "net/repl_log.h"
#include "net/replication.h"
#include "net/server.h"
#include "net/socket.h"
#include "persist/durability.h"
#include "persist/wal.h"
#include "store/store.h"
#include "store/store_io.h"
#include "util/xorwow.h"

using namespace gf;

namespace {

// Byte-identity between primary and replica requires a deterministic
// engine; the lock-free point-TCF's concurrent inserts are not across
// pool schedules.  Pin the pool to one worker before its lazy
// construction (same rationale as net_replication_test.cpp).
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

/// Leave no armed plan behind, whatever a failing assertion skipped.
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
  /// Replica form: adopt the feed before the loop starts.
  live_server(store::filter_store st, net::server_config cfg,
              net::socket_fd feed, net::frame_decoder dec, uint64_t next_seq)
      : srv(std::move(cfg), std::move(st)) {
    srv.attach_feed(std::move(feed), std::move(dec), next_seq);
    loop = std::thread([this] { srv.run(); });
  }
  /// Lane-aware replica form: one last-applied position per replication
  /// lane (a multi-reactor primary's snapshot lane table).
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

net::server_config replica_config() {
  net::server_config cfg;
  cfg.read_only = true;
  return cfg;
}

/// A replica that supervises its feed: fast deterministic backoff, the
/// fault-arming connector, and a pinned jitter seed.
net::server_config supervised_config(uint16_t primary_port) {
  net::server_config cfg = replica_config();
  cfg.feed_addr = "127.0.0.1:" + std::to_string(primary_port);
  cfg.reconnect_base_ms = 2;
  cfg.reconnect_max_ms = 100;
  cfg.reconnect_jitter_seed = 0x5eed;
  cfg.connector = net::faulty_connector();
  return cfg;
}

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

net::fault_plan one_event(net::fault_kind kind, net::fault_dir dir,
                          uint64_t at_bytes, uint32_t arg = 0) {
  net::fault_plan plan;
  plan.events.push_back({kind, dir, at_bytes, arg});
  return plan;
}

/// The server end, in this process, of the connection whose client end is
/// `client_fd`: the socket whose peer is the client's local address.
int server_end_of(int client_fd) {
  sockaddr_in mine{};
  socklen_t len = sizeof(mine);
  if (::getsockname(client_fd, reinterpret_cast<sockaddr*>(&mine), &len) != 0)
    return -1;
  for (int fd = 0; fd < 4096; ++fd) {
    sockaddr_in peer{};
    len = sizeof(peer);
    if (fd == client_fd ||
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0)
      continue;
    if (peer.sin_family == AF_INET && peer.sin_port == mine.sin_port &&
        peer.sin_addr.s_addr == mine.sin_addr.s_addr)
      return fd;
  }
  return -1;
}

/// A stand-in 100-byte (or `n`-byte) frame for the memory tier, which
/// never decodes what it keeps.
std::shared_ptr<const std::vector<uint8_t>> blob(uint8_t fill,
                                                 size_t n = 100) {
  return std::make_shared<const std::vector<uint8_t>>(n, fill);
}

/// Replay (after, cur] from `log` into a fresh buffer.
std::pair<net::repl_tier, std::vector<uint8_t>> replay(
    const net::repl_log& log, uint64_t after, uint64_t cur) {
  std::vector<uint8_t> out;
  const net::repl_tier t = log.replay(after, cur, out);
  return {t, std::move(out)};
}

}  // namespace

// -- The replication log's memory tier ---------------------------------------

TEST(NetFault, ReplLogTailCoversEncodesAndEvicts) {
  net::repl_log log(1, 1000, nullptr);
  // Empty tail: only the degenerate "nothing missed" resume is coverable.
  EXPECT_EQ(replay(log, 7, 7),
            std::make_pair(net::repl_tier::memory, std::vector<uint8_t>{}));
  EXPECT_EQ(replay(log, 0, 1).first, net::repl_tier::none);

  log.append(1, blob(0xA1));
  log.append(2, blob(0xA2));
  log.append(3, blob(0xA3));
  EXPECT_EQ(log.frames(), 3u);
  // Full replay from the beginning: exactly frames 1, 2, 3.
  EXPECT_EQ(replay(log, 0, 3).first, net::repl_tier::memory);
  EXPECT_EQ(replay(log, 0, 3).second.size(), 300u);
  EXPECT_EQ(replay(log, 1, 3).first, net::repl_tier::memory);  // 2, 3
  EXPECT_EQ(replay(log, 3, 3),  // nothing missed
            std::make_pair(net::repl_tier::memory, std::vector<uint8_t>{}));
  // A future the primary never reached.
  EXPECT_EQ(replay(log, 5, 3).first, net::repl_tier::none);

  const std::vector<uint8_t> out = replay(log, 1, 3).second;
  ASSERT_EQ(out.size(), 200u);
  EXPECT_EQ(out[0], 0xA2);
  EXPECT_EQ(out[100], 0xA3);

  // Eviction under the byte budget: oldest first, coverage shrinks.
  for (uint64_t seq = 4; seq <= 12; ++seq) log.append(seq, blob(0xB0));
  EXPECT_LE(log.bytes(), 1000u);
  EXPECT_EQ(replay(log, 0, 12).first, net::repl_tier::none);
  const uint64_t first = 12 - log.frames() + 1;
  EXPECT_EQ(replay(log, first - 1, 12).first, net::repl_tier::memory);
  EXPECT_EQ(replay(log, first - 1, 12).second.size(), log.bytes());

  // A non-contiguous sequence clears the tail: replaying across a hole
  // would hand a replica a silently diverged store.
  log.append(50, blob(0xC0, 10));
  EXPECT_EQ(log.frames(), 1u);
  EXPECT_EQ(replay(log, 49, 50),
            std::make_pair(net::repl_tier::memory,
                           std::vector<uint8_t>(10, 0xC0)));
  EXPECT_EQ(replay(log, 12, 50).first, net::repl_tier::none);

  // Budget 0 disables recording entirely.
  net::repl_log off(1, 0, nullptr);
  off.append(1, blob(0, 10));
  EXPECT_EQ(off.frames(), 0u);
  EXPECT_EQ(replay(off, 0, 1).first, net::repl_tier::none);
}

// -- Supervised reconnect + delta re-sync -------------------------------------

TEST(NetFault, FeedCutFiveTimesConvergesByDeltaByteIdentical) {
  fault_guard guard;
  live_server primary{store::filter_store(small_config())};
  auto cli = primary.connect();
  auto keys = util::hashed_xorwow_items(100000, 1201);
  std::span<const uint64_t> span(keys);

  // Bootstrap a supervised replica, then script its fate: the initial
  // feed and the next four reconnected feeds each die after 30000 bytes
  // of stream traffic; the fifth reconnect draws an empty plan queue and
  // lives.  All cuts land mid-workload at exact byte offsets.
  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  net::fault_engine::instance().arm(
      sr.feed.get(),
      one_event(net::fault_kind::cut, net::fault_dir::recv, 30000));
  for (int i = 0; i < 4; ++i)
    net::fault_engine::instance().queue_connect_plan(
        one_event(net::fault_kind::cut, net::fault_dir::recv, 30000));
  live_server replica(std::move(sr.store),
                      supervised_config(primary.srv.port()),
                      std::move(sr.feed), std::move(sr.dec),
                      sr.repl_seq + 1);

  // Five phases of mixed traffic (inserts + an erase batch, ~165 KiB of
  // stream each — far past every 30000-byte trigger), each phase waiting
  // for its scripted cut to have fired before the next begins.
  for (uint64_t k = 0; k < 5; ++k) {
    auto phase = span.subspan(k * 20000, 20000);
    for (size_t lo = 0; lo < phase.size(); lo += 4000)
      cli.insert(phase.subspan(lo, 4000));
    cli.erase(phase.subspan(0, 1000));
    ASSERT_TRUE(wait_until(
        [&] { return replica.srv.stats().feed_lost >= k + 1; }))
        << "cut " << k + 1 << " never fired";
  }

  ASSERT_TRUE(converged(primary, replica));
  auto stats = replica.srv.stats();
  EXPECT_EQ(stats.feed_lost, 5u);
  EXPECT_EQ(stats.feed_reconnects, 5u);
  EXPECT_EQ(stats.resyncs_delta, 5u);     // the ring covered every gap
  EXPECT_EQ(stats.resyncs_snapshot, 0u);  // no snapshot ever moved again
  EXPECT_EQ(stats.feed_gaps, 0u);         // deltas bridged seamlessly
  EXPECT_EQ(primary.srv.stats().deltas_served, 5u);

  // The acceptance bar: after five kills the replica IS the primary,
  // byte for byte.
  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
}

TEST(NetFault, DeltaResumeReplaysExactlyTheMissedFrames) {
  live_server primary{store::filter_store(small_config())};
  auto cli = primary.connect();
  auto base = util::hashed_xorwow_items(8000, 1301);
  cli.insert(base);

  // Bootstrap, then lose the feed on purpose.
  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  const uint64_t last_applied = sr.repl_seq;
  sr.feed.reset();

  // Mutations the detached replica misses.
  auto missed = util::hashed_xorwow_items(6000, 1302);
  cli.insert(missed);
  cli.erase(std::span<const uint64_t>(base).subspan(0, 2000));

  // Resume: granted as a delta — the store in hand stays, no snapshot
  // bytes move, and the promised replay range is exactly the gap.
  auto rr = net::sync_resume("127.0.0.1", primary.srv.port(), last_applied);
  ASSERT_EQ(rr.kind, net::resync_kind::delta);
  EXPECT_FALSE(rr.store.has_value());
  EXPECT_EQ(rr.snapshot_bytes, 0u);
  EXPECT_EQ(rr.resume_from, last_applied);
  EXPECT_EQ(rr.repl_seq, primary.srv.stats().repl_seq);
  EXPECT_EQ(primary.srv.stats().deltas_served, 1u);

  // Attach the resumed feed to a live replica: the replayed frames apply
  // like stream traffic, then live mutations keep flowing.
  live_server replica(std::move(sr.store), replica_config(),
                      std::move(rr.feed), std::move(rr.dec),
                      last_applied + 1);
  auto fresh = util::hashed_xorwow_items(4000, 1303);
  cli.insert(fresh);
  ASSERT_TRUE(converged(primary, replica));
  EXPECT_EQ(replica.srv.stats().feed_gaps, 0u);

  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
}

TEST(NetFault, WrappedReplayRingFallsBackToSnapshot) {
  // A ring smaller than one frame keeps only the newest frame — any
  // resume with more than one missed frame is uncoverable.
  net::server_config pcfg;
  pcfg.replay_ring_bytes = 2048;
  live_server primary{store::filter_store(small_config()), pcfg};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(8000, 1401));

  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  const uint64_t last_applied = sr.repl_seq;
  sr.feed.reset();

  auto missed = util::hashed_xorwow_items(12000, 1402);
  std::span<const uint64_t> span(missed);
  for (size_t lo = 0; lo < missed.size(); lo += 4000)
    cli.insert(span.subspan(lo, 4000));

  auto rr = net::sync_resume("127.0.0.1", primary.srv.port(), last_applied);
  ASSERT_EQ(rr.kind, net::resync_kind::snapshot);
  ASSERT_TRUE(rr.store.has_value());
  EXPECT_GT(rr.snapshot_bytes, 0u);
  EXPECT_EQ(rr.repl_seq, primary.srv.stats().repl_seq);
  EXPECT_EQ(primary.srv.stats().deltas_served, 0u);

  live_server replica(std::move(*rr.store), replica_config(),
                      std::move(rr.feed), std::move(rr.dec),
                      rr.repl_seq + 1);
  cli.insert(util::hashed_xorwow_items(2000, 1403));
  ASSERT_TRUE(converged(primary, replica));

  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
}

TEST(NetFault, PrimaryRestartFromSnapshotReattachesReplicaBySnapshot) {
  const std::string path = "/tmp/gf_fault_restart.gfs";
  std::remove(path.c_str());

  net::server_config pcfg;
  pcfg.snapshot_path = path;
  auto primary =
      std::make_unique<live_server>(store::filter_store(small_config()),
                                    pcfg);
  const uint16_t port = primary->srv.port();
  auto cli = std::make_unique<net::client>("127.0.0.1", port);
  auto base = util::hashed_xorwow_items(8000, 1501);
  cli->insert(base);
  ASSERT_GT(cli->snapshot(), 0u);  // persist at this stream position

  // Supervised replica (real tcp_connect — the fault here is process
  // death, not packet scripting).
  auto scfg = supervised_config(port);
  scfg.connector = nullptr;
  scfg.reconnect_base_ms = 5;
  auto sr = net::sync_from("127.0.0.1", port);
  live_server replica(std::move(sr.store), scfg, std::move(sr.feed),
                      std::move(sr.dec), sr.repl_seq + 1);

  // Mutations past the snapshot: streamed to the replica but absent from
  // the file the primary will restart from.
  auto lost = util::hashed_xorwow_items(4000, 1502);
  cli->insert(lost);
  ASSERT_TRUE(converged(*primary, replica));
  ASSERT_GT(replica.srv.stats().repl_seq, 0u);

  // The primary dies mid-topology.  The replica's reconnect attempts
  // fail (connection refused) and back off until a primary returns.
  cli.reset();
  primary.reset();
  ASSERT_TRUE(wait_until(
      [&] { return replica.srv.stats().reconnect_failures >= 1; }));

  // Restart from the snapshot on the same port: the new primary is back
  // at sequence 0 with *older* data than the replica has applied.  The
  // resume must be answered by snapshot — a delta at position 0 would
  // leave the replica holding mutations this lineage never saw.
  net::server_config rcfg = pcfg;
  rcfg.port = port;  // the address the replica's supervisor keeps dialing
  live_server restarted{store::load_store(path), rcfg};
  ASSERT_EQ(restarted.srv.port(), port);
  ASSERT_TRUE(wait_until([&] {
    return replica.srv.stats().resyncs_snapshot >= 1 &&
           replica.srv.stats().feed_attached == 1;
  }));

  // Live again: new mutations reach the re-attached replica.
  net::client cli2("127.0.0.1", port);
  cli2.insert(util::hashed_xorwow_items(2000, 1503));
  ASSERT_TRUE(converged(restarted, replica));

  replica.stop();
  restarted.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(restarted.srv.store()));
  std::remove(path.c_str());
}

// -- Ack-gated writes ---------------------------------------------------------

TEST(NetFault, AckGateReleasesOnReplicaAck) {
  net::server_config pcfg;
  pcfg.ack_replicas = 1;
  pcfg.ack_timeout_ms = 10000;  // far away: release must come from the ack
  live_server primary{store::filter_store(small_config()), pcfg};

  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  live_server replica(std::move(sr.store), replica_config(),
                      std::move(sr.feed), std::move(sr.dec),
                      sr.repl_seq + 1);

  auto cli = primary.connect();
  auto keys = util::hashed_xorwow_items(1000, 1601);
  const uint64_t seq = cli.submit_insert(keys);
  net::frame f = cli.wait(seq);
  EXPECT_EQ(f.status, net::wire_status::ok);  // full durability answer
  auto stats = primary.srv.stats();
  EXPECT_GE(stats.ack_waits, 1u);
  EXPECT_EQ(stats.ack_degraded, 0u);
}

TEST(NetFault, AckGateDegradesOnDeadlineAndNeverHangs) {
  net::server_config pcfg;
  pcfg.ack_replicas = 1;
  pcfg.ack_timeout_ms = 50;
  live_server primary{store::filter_store(small_config()), pcfg};

  // A subscriber that never acks: sync and then sit on the feed.
  auto sr = net::sync_from("127.0.0.1", primary.srv.port());

  auto cli = primary.connect();
  auto keys = util::hashed_xorwow_items(1000, 1701);
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t seq = cli.submit_insert(keys);
  net::frame f = cli.wait(seq);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(f.status, net::wire_status::ok_async);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            40);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            5000);
  EXPECT_GE(primary.srv.stats().ack_degraded, 1u);

  // Degraded means applied: the keys are queryable immediately.
  EXPECT_TRUE(cli.query_one(keys[0]));
  (void)sr;
}

TEST(NetFault, AckGateDegradesImmediatelyWithoutSubscribers) {
  net::server_config pcfg;
  pcfg.ack_replicas = 1;
  pcfg.ack_timeout_ms = 10000;  // must NOT be waited out
  live_server primary{store::filter_store(small_config()), pcfg};

  auto cli = primary.connect();
  auto keys = util::hashed_xorwow_items(500, 1801);
  const auto t0 = std::chrono::steady_clock::now();
  net::frame f = cli.wait(cli.submit_insert(keys));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(f.status, net::wire_status::ok_async);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            1000);
  auto stats = primary.srv.stats();
  EXPECT_EQ(stats.ack_waits, 1u);
  EXPECT_EQ(stats.ack_degraded, 1u);

  // The typed convenience API treats ok_async as success.
  auto r = cli.insert(keys);
  EXPECT_EQ(r.ok + r.failed, keys.size());
}

// -- Byte-level faults --------------------------------------------------------

TEST(NetFault, CorruptByteCondemnsExactlyThatConnection) {
  fault_guard guard;
  live_server srv{store::filter_store(small_config())};

  // Victim: its 41st sent byte (inside the first request's payload) is
  // flipped in flight; the CRC trailer convicts the frame on arrival.
  net::fault_engine::instance().queue_connect_plan(
      one_event(net::fault_kind::corrupt, net::fault_dir::send, 40));
  net::client victim("127.0.0.1", srv.srv.port(),
                     net::kDefaultMaxFrameBytes, /*timeout_ms=*/0,
                     net::faulty_connector());
  net::client bystander = srv.connect();

  auto keys = util::hashed_xorwow_items(100, 1901);
  EXPECT_THROW(
      {
        victim.submit_insert(keys);
        // The server condemns the stream without replying; the client
        // sees the close while waiting.
        victim.wait(1);
      },
      std::runtime_error);

  // Exactly one casualty: the bystander's traffic is untouched and the
  // server counted one protocol error.
  bystander.insert(keys);
  EXPECT_TRUE(bystander.query_one(keys[0]));
  ASSERT_TRUE(wait_until(
      [&] { return srv.srv.stats().protocol_errors == 1; }));
  EXPECT_EQ(srv.srv.stats().protocol_errors, 1u);
}

TEST(NetFault, PartitionedServerTripsClientDeadline) {
  fault_guard guard;
  live_server srv{store::filter_store(small_config())};

  // Partition from byte 0: every send "succeeds" but vanishes, so no
  // response can ever come back.  The per-operation deadline turns that
  // from a hang into a typed timeout.
  net::fault_engine::instance().queue_connect_plan(
      one_event(net::fault_kind::partition, net::fault_dir::send, 0));
  net::client cli("127.0.0.1", srv.srv.port(), net::kDefaultMaxFrameBytes,
                  /*timeout_ms=*/100, net::faulty_connector());
  EXPECT_THROW(cli.ping(), net::timeout_error);
}

TEST(NetFault, SilentPrimaryTripsSyncDeadline) {
  // A listener that accepts but never speaks the protocol: sync_from's
  // per-silence deadline must fire instead of blocking forever.
  net::socket_fd mute = net::tcp_listen("127.0.0.1", 0);
  const uint16_t port = net::local_port(mute);
  EXPECT_THROW(net::sync_from("127.0.0.1", port, "",
                              net::kDefaultMaxFrameBytes,
                              /*connect_retries=*/0, /*timeout_ms=*/100),
               net::timeout_error);
}

TEST(NetFault, ShortReadsAndStallsStillDeliverFrames) {
  fault_guard guard;
  live_server srv{store::filter_store(small_config())};

  // 200 one-byte reads plus a 30 ms stall: brutal for the decoder's
  // framing, invisible to correctness.
  net::fault_plan plan;
  plan.events.push_back(
      {net::fault_kind::stall, net::fault_dir::recv, 0, 30});
  plan.events.push_back(
      {net::fault_kind::short_io, net::fault_dir::recv, 0, 200});
  net::fault_engine::instance().queue_connect_plan(std::move(plan));
  net::client cli("127.0.0.1", srv.srv.port(), net::kDefaultMaxFrameBytes,
                  /*timeout_ms=*/0, net::faulty_connector());

  const auto t0 = std::chrono::steady_clock::now();
  auto keys = util::hashed_xorwow_items(64, 2001);
  auto r = cli.insert(keys);
  EXPECT_EQ(r.ok + r.failed, keys.size());
  EXPECT_TRUE(cli.query_one(keys[0]));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            25);
  EXPECT_EQ(srv.srv.stats().protocol_errors, 0u);
}

// -- Multi-reactor primaries under fault --------------------------------------

#if defined(__SANITIZE_THREAD__)
#define GF_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GF_TSAN_ACTIVE 1
#endif
#endif

TEST(NetFault, MultiReactorFeedCutResyncsByLaneDelta) {
  // A supervised replica of a 4-reactor primary loses its feed mid-stream
  // (scripted byte-offset cut).  Its resume request presents all four
  // lane positions; the primary's per-reactor replay rings each cover
  // their lane's gap, so the re-sync is a lane-aware delta — no snapshot
  // moves — and the replica ends byte-identical.
  fault_guard guard;
  net::server_config pcfg;
  pcfg.reactors = 4;
  auto scfg = small_config();
  scfg.num_shards = 8;
  live_server primary{store::filter_store(scfg), pcfg};
  auto cli = primary.connect();
  auto keys = util::hashed_xorwow_items(60000, 2201);
  std::span<const uint64_t> span(keys);

  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  net::fault_engine::instance().arm(
      sr.feed.get(),
      one_event(net::fault_kind::cut, net::fault_dir::recv, 30000));
  net::server_config rcfg = supervised_config(primary.srv.port());
  live_server replica(std::move(sr.store), std::move(rcfg),
                      std::move(sr.feed), std::move(sr.dec),
                      std::span<const uint64_t>(sr.lane_seqs));

  for (uint64_t k = 0; k < 3; ++k) {
    auto phase = span.subspan(k * 20000, 20000);
    for (size_t lo = 0; lo < phase.size(); lo += 4000)
      cli.insert(phase.subspan(lo, 4000));
    cli.erase(phase.subspan(0, 1000));
    if (k == 0) {
      ASSERT_TRUE(wait_until(
          [&] { return replica.srv.stats().feed_lost >= 1; }))
          << "scripted cut never fired";
    }
  }

  ASSERT_TRUE(converged(primary, replica));
  auto stats = replica.srv.stats();
  EXPECT_EQ(stats.feed_lost, 1u);
  EXPECT_EQ(stats.feed_reconnects, 1u);
  EXPECT_EQ(stats.resyncs_delta, 1u);     // all four lanes were covered
  EXPECT_EQ(stats.resyncs_snapshot, 0u);  // no snapshot moved again
  EXPECT_EQ(stats.feed_gaps, 0u);         // per-lane resume was seamless
  EXPECT_EQ(primary.srv.stats().deltas_served, 1u);

  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
}

TEST(NetFault, MultiReactorPrimarySigkillWalRecovery) {
#ifdef GF_TSAN_ACTIVE
  GTEST_SKIP() << "fork+SIGKILL drills are unreliably slow under TSan";
#endif
  // A 4-reactor primary with a per-lane WAL (fsync=every) is SIGKILLed
  // mid-service in a child process.  Every write the parent saw
  // acknowledged must survive recovery of the WAL directory — each
  // reactor appended its lane's stream before the response could flush.
  const std::string dir = std::string(::testing::TempDir()) +
                          "gf_mr_sigkill_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  auto scfg = small_config(1 << 16);
  scfg.num_shards = 8;

  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: serve until killed.
    ::close(port_pipe[0]);
    persist::wal_config wcfg;
    wcfg.dir = dir;
    wcfg.fsync = persist::fsync_policy::every;
    wcfg.checkpoint_every_bytes = 0;
    persist::durability_engine dur(std::move(wcfg));
    store::filter_store st = dur.recover([&] {
      return std::pair<store::filter_store, uint64_t>(
          store::filter_store(scfg), 0);
    });
    net::server_config cfg;
    cfg.reactors = 4;
    cfg.durability = &dur;
    net::server srv(std::move(cfg), std::move(st));
    const uint16_t port = srv.port();
    if (::write(port_pipe[1], &port, sizeof(port)) != sizeof(port))
      ::_exit(3);
    ::close(port_pipe[1]);
    srv.run();
    ::_exit(0);
  }
  ::close(port_pipe[1]);
  uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(port_pipe[0]);

  auto keys = util::hashed_xorwow_items(16000, 2301);
  std::span<const uint64_t> span(keys);
  {
    net::client cli("127.0.0.1", port);
    // Acknowledged phase: every batch's response arrived, so its frames
    // are fsynced in their lanes.
    for (size_t lo = 0; lo < keys.size(); lo += 2000)
      cli.insert(span.subspan(lo, 2000));
    // In-flight phase: submitted but never awaited — may or may not have
    // landed; recovery owes nothing for it, only a clean (non-torn) log.
    cli.submit_insert(util::hashed_xorwow_items(2000, 2302));
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Recover the killed primary's WAL directory in-process.
  persist::wal_config wcfg;
  wcfg.dir = dir;
  wcfg.fsync = persist::fsync_policy::none;
  persist::durability_engine dur(std::move(wcfg));
  store::filter_store recovered = dur.recover([&] {
    return std::pair<store::filter_store, uint64_t>(
        store::filter_store(scfg), 0);
  });
  const persist::durability_stats d = dur.stats();
  EXPECT_EQ(d.recovery_gaps, 0u);
  EXPECT_EQ(dur.last_seqs().size(), 4u) << "expected one WAL lane per reactor";
  for (uint64_t k : keys)
    EXPECT_TRUE(recovered.contains(k)) << "acknowledged key lost: " << k;
  std::filesystem::remove_all(dir);
}

TEST(NetFault, MultiReactorReplicaPublishesAFrameOnlyOnceApplied) {
  // A 2-reactor read-only replica routes each feed frame's keys to the
  // reactors that own their shards.  Reactor 1 is held in a scripted
  // stall — the server end of a client connection it owns sleeps on its
  // next read — so the parts for its shards wait in its mailbox.  Until
  // they apply, the replica must not report the frame's sequence: a reader
  // that sees it would miss the frame's keys on reactor 1's shards.
  fault_guard guard;
  live_server primary{store::filter_store(small_config())};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(2000, 2501));
  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  net::server_config rcfg = replica_config();
  rcfg.reactors = 2;
  live_server replica(std::move(sr.store), rcfg, std::move(sr.feed),
                      std::move(sr.dec),
                      std::span<const uint64_t>(sr.lane_seqs));
  ASSERT_TRUE(converged(primary, replica));

  // Connections are dealt round robin: the first to reactor 0, the
  // second to reactor 1.
  auto on_r0 = replica.connect();
  on_r0.ping();
  int client_fd = -1;
  net::client on_r1("127.0.0.1", replica.srv.port(),
                    net::kDefaultMaxFrameBytes, /*timeout_ms=*/0,
                    [&](const std::string& host, uint16_t port) {
                      net::socket_fd fd = net::tcp_connect(host, port);
                      client_fd = fd.get();
                      return fd;
                    });
  on_r1.ping();
  const int server_fd = server_end_of(client_fd);
  ASSERT_GE(server_fd, 0);
  net::fault_engine::instance().arm(
      server_fd,
      one_event(net::fault_kind::stall, net::fault_dir::recv, 0, 2000));
  std::atomic<bool> stall_over{false};
  std::thread stalled([&] {
    on_r1.ping();  // reactor 1 sleeps in this ping's read
    stall_over = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const uint64_t keys_before = replica.srv.stats().keys_processed;
  auto keys = util::hashed_xorwow_items(2000, 2502);
  cli.insert(keys);
  const uint64_t seq = primary.srv.stats().repl_seq;
  // A second frame only reactor 0's shards (0 and 1) answer: it applies
  // at once, but its position must wait behind the first frame's.
  std::vector<uint64_t> r0_keys;
  for (uint64_t k : util::hashed_xorwow_items(2000, 2503))
    if (primary.srv.store().shard_of(k) < 2) r0_keys.push_back(k);
  cli.insert(r0_keys);
  // Reactor 0 routed both frames: its own parts applied, reactor 1's wait.
  ASSERT_TRUE(wait_until([&] {
    return replica.srv.stats().keys_processed >=
           keys_before + keys.size() + r0_keys.size();
  }));
  EXPECT_FALSE(wait_until(
      [&] {
        const net::server_stats st = replica.srv.stats();
        return st.feed_last_seq >= seq || st.repl_seq >= seq;
      },
      300))
      << "the replica published sequence " << seq
      << " before reactor 1 applied its parts";
  ASSERT_FALSE(stall_over.load()) << "the stall ended before the check";

  stalled.join();
  ASSERT_TRUE(converged(primary, replica));
  EXPECT_EQ(replica.srv.stats().feed_last_seq, seq + 1);
  const auto hits = on_r1.query_bitmap(keys);
  for (size_t i = 0; i < keys.size(); ++i)
    ASSERT_TRUE((hits[i / 64] >> (i % 64)) & 1) << "key " << i;
}

TEST(NetFault, ReplicaCountsOnlyInboundConnections) {
  // A replica's feed is its own outbound connection: losing it, and the
  // supervisor's replacement, are no accepted connection closing, so
  // connections_closed must never outrun connections_accepted.
  auto primary =
      std::make_unique<live_server>(store::filter_store(small_config()));
  const uint16_t port = primary->srv.port();
  primary->connect().insert(util::hashed_xorwow_items(2000, 2401));
  auto scfg = supervised_config(port);
  scfg.connector = nullptr;  // the fault here is process death
  scfg.reconnect_base_ms = 5;
  auto sr = net::sync_from("127.0.0.1", port);
  live_server replica(std::move(sr.store), scfg, std::move(sr.feed),
                      std::move(sr.dec), sr.repl_seq + 1);

  // The primary dies and a fresh one comes back on the same port; the
  // replica loses its feed, reconnects and re-syncs.
  primary.reset();
  ASSERT_TRUE(
      wait_until([&] { return replica.srv.stats().feed_lost >= 1; }));
  net::server_config rcfg;
  rcfg.port = port;
  live_server restarted{store::filter_store(small_config()), rcfg};
  ASSERT_TRUE(wait_until([&] {
    const net::server_stats s = replica.srv.stats();
    return s.feed_reconnects >= 1 && s.feed_attached == 1;
  }));

  EXPECT_EQ(replica.srv.stats().connections_closed, 0u);

  // One inbound client comes and goes.
  const uint64_t closed_before = replica.srv.stats().connections_closed;
  replica.connect().ping();
  ASSERT_TRUE(wait_until([&] {
    return replica.srv.stats().connections_closed > closed_before;
  }));
  const net::server_stats s = replica.srv.stats();
  EXPECT_EQ(s.connections_accepted, 1u);
  EXPECT_LE(s.connections_closed, s.connections_accepted);
}
