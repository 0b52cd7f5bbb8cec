// Primary/replica replication over the wire protocol (net/replication.h):
//   * SYNC bootstrap + live streaming end in a replica that answers a
//     100k-key mixed QUERY/COUNT workload bit-identically to its primary,
//     on all four backends — and whose serialized store is byte-identical
//     (the stream is applied through the same bulk machinery in the same
//     order, so the replica IS the primary, bit for bit);
//   * snapshots transfer in many CRC-framed chunks;
//   * replicas refuse client mutations in-band and keep serving reads at
//     the last acknowledged stream position when the primary dies;
//   * stream sequence gaps (dropped or replayed frames) surface in STATS;
//   * forwarded + synthesized MAINTAIN keeps cascade growth in lockstep,
//     on a lane-0 stream of plain consecutive sequences;
//   * a primary's invite attaches a standby replica (--replicate-to);
//   * replicas chain (A -> B -> C) because feed-applied mutations forward
//     downstream with their upstream sequence.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/codec.h"
#include "net/replication.h"
#include "net/server.h"
#include "net/socket.h"
#include "store/store.h"
#include "store/store_io.h"
#include "util/xorwow.h"

using namespace gf;

namespace {

// The guarantee under test is byte-identity: replica == primary, bit for
// bit.  That holds because the engine is deterministic at any pool width:
// the store's bulk tier runs one logical worker per shard and nested
// launches execute inline, so a shard's operation stream is applied
// serially in frame order regardless of GF_NUM_WORKERS (the historical
// one-worker pin is gone; ctest runs this binary at 1 and 4 workers).

constexpr store::backend_kind kAllBackends[] = {
    store::backend_kind::tcf, store::backend_kind::gqf,
    store::backend_kind::blocked_bloom, store::backend_kind::bulk_tcf};

store::store_config small_config(store::backend_kind backend,
                                 uint64_t capacity = 1 << 16) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = 4;
  cfg.capacity = capacity;
  return cfg;
}

/// A server on an ephemeral loopback port with its event loop on a
/// background thread; joins cleanly on destruction (or earlier via stop()).
struct live_server {
  net::server srv;
  std::thread loop;
  bool stopped = false;

  explicit live_server(store::filter_store st, net::server_config cfg = {})
      : srv(std::move(cfg), std::move(st)) {
    loop = std::thread([this] { srv.run(); });
  }
  /// Replica form: adopt the feed before the loop starts.  Lane-aware:
  /// a multi-reactor primary's snapshot carries a lane table in
  /// sr.lane_seqs (one entry, the plain repl_seq, when the primary runs
  /// one reactor).
  live_server(store::filter_store st, net::sync_result&& sr,
              net::server_config cfg)
      : srv(std::move(cfg), std::move(st)) {
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

net::server_config replica_config() {
  net::server_config cfg;
  cfg.read_only = true;
  return cfg;
}

/// Boot a replica of `primary`: SYNC bootstrap, then a live read-only
/// server applying the stream.
live_server make_replica(live_server& primary,
                         net::server_config cfg = replica_config()) {
  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  store::filter_store st = std::move(sr.store);
  return live_server(std::move(st), std::move(sr), std::move(cfg));
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 15000) {
  for (int waited = 0; waited < timeout_ms; waited += 2) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Replication is asynchronous: wait until the replica's stream position
/// (snapshot position advanced by every applied feed frame) reaches the
/// primary's.
bool converged(live_server& primary, live_server& replica) {
  return wait_until([&] {
    return replica.srv.stats().repl_seq == primary.srv.stats().repl_seq;
  });
}

}  // namespace

TEST(NetReplication, BootstrapAndLiveStreamBitIdenticalEveryBackend) {
  for (auto backend : kAllBackends) {
    const bool deletes =
        backend != store::backend_kind::blocked_bloom;
    live_server primary{store::filter_store(small_config(backend))};
    auto cli = primary.connect();

    // History before the replica exists: its snapshot must carry this.
    auto base = util::hashed_xorwow_items(30000, 901);
    cli.insert(base);

    live_server replica = make_replica(primary);
    EXPECT_EQ(replica.srv.store().size(), primary.srv.store().size());

    // Live phase: inserts, counted inserts, erases, and a maintenance
    // pass stream in while the replica is attached.
    auto fresh = util::hashed_xorwow_items(20000, 902);
    std::span<const uint64_t> fresh_span(fresh);
    for (size_t lo = 0; lo < fresh.size(); lo += 4000)
      cli.insert(fresh_span.subspan(lo, 4000));
    std::vector<uint64_t> counts(2000);
    for (size_t i = 0; i < counts.size(); ++i) counts[i] = 1 + i % 3;
    cli.insert_counted(fresh_span.subspan(0, 2000), counts);
    if (deletes) cli.erase(std::span<const uint64_t>(base).subspan(0, 5000));
    cli.maintain();

    ASSERT_TRUE(converged(primary, replica)) << backend_name(backend);

    // The acceptance probe: 100k keys, half the inserted universe and
    // half never-seen, answered bit-identically — membership bitmaps and
    // multiplicities alike.
    std::vector<uint64_t> probes = base;
    probes.insert(probes.end(), fresh.begin(), fresh.end());
    auto absent = util::hashed_xorwow_items(50000, 903);
    probes.insert(probes.end(), absent.begin(), absent.end());
    ASSERT_EQ(probes.size(), 100000u);

    auto rcli = replica.connect();
    EXPECT_EQ(rcli.query_bitmap(probes), cli.query_bitmap(probes))
        << backend_name(backend);
    auto probe_counts =
        std::span<const uint64_t>(probes).subspan(20000, 20000);
    EXPECT_EQ(rcli.counts(probe_counts), cli.counts(probe_counts))
        << backend_name(backend);

    // Strongest form: stop both loops and compare the stores byte for
    // byte — the replica applied the identical mutation stream through
    // the identical bulk machinery.
    replica.stop();
    primary.stop();
    EXPECT_EQ(store::serialize_store(replica.srv.store()),
              store::serialize_store(primary.srv.store()))
        << backend_name(backend);
  }
}

TEST(NetReplication, SnapshotTransfersInManyChunks) {
  net::server_config pcfg;
  pcfg.sync_chunk_bytes = 4096;  // force a few hundred chunks
  live_server primary{store::filter_store(
                          small_config(store::backend_kind::tcf)),
                      pcfg};
  auto cli = primary.connect();
  auto keys = util::hashed_xorwow_items(40000, 911);
  cli.insert(keys);

  auto sr = net::sync_from("127.0.0.1", primary.srv.port());
  EXPECT_GT(sr.snapshot_bytes, size_t{100000});  // dozens of 4 KiB chunks
  primary.stop();
  EXPECT_EQ(store::serialize_store(sr.store),
            store::serialize_store(primary.srv.store()));
}

TEST(NetReplication, SyncThroughSnapshotPathWritesAtomically) {
  // Per process: ctest runs this binary under two registrations at once.
  const std::string path = "/tmp/gf_replication_sync_snapshot." +
                           std::to_string(::getpid()) + ".gfs";
  std::remove(path.c_str());
  live_server primary{store::filter_store(
      small_config(store::backend_kind::gqf))};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(9000, 921));

  auto sr = net::sync_from("127.0.0.1", primary.srv.port(), path);
  // The replica's first on-disk snapshot is the one it booted from.
  auto reloaded = store::load_store(path);
  EXPECT_EQ(store::serialize_store(reloaded),
            store::serialize_store(sr.store));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(NetReplication, ReplicaRefusesClientMutationsInBand) {
  live_server primary{store::filter_store(
      small_config(store::backend_kind::tcf))};
  auto cli = primary.connect();
  auto keys = util::hashed_xorwow_items(2000, 931);
  cli.insert(keys);
  live_server replica = make_replica(primary);

  auto rcli = replica.connect();
  // Reads work; mutations come back as typed errors, not dropped
  // connections.
  EXPECT_GT(rcli.query_bitmap(keys)[0] | 1u, 0u);
  EXPECT_THROW(rcli.insert(keys), std::runtime_error);
  EXPECT_THROW(rcli.erase(keys), std::runtime_error);
  EXPECT_THROW(rcli.maintain(), std::runtime_error);
  rcli.ping();  // the connection survived all three refusals
  EXPECT_EQ(replica.srv.stats().read_only_refusals, 3u);
  EXPECT_EQ(replica.srv.store().size(), primary.srv.store().size());

  // STATS names the role on both ends.
  EXPECT_NE(rcli.stats_json().find("\"role\":\"replica\""),
            std::string::npos);
  EXPECT_NE(cli.stats_json().find("\"role\":\"primary\""),
            std::string::npos);
}

TEST(NetReplication, PrimaryDeathLeavesReplicaServingLastAckedState) {
  auto cfg = small_config(store::backend_kind::tcf);
  auto primary = std::make_unique<live_server>(store::filter_store(cfg));
  auto cli = primary->connect();
  auto keys = util::hashed_xorwow_items(25000, 941);
  cli.insert(keys);
  live_server replica = make_replica(*primary);
  std::span<const uint64_t> span(keys);
  cli.erase(span.subspan(0, 3000));
  ASSERT_TRUE(converged(*primary, replica));
  const uint64_t last_seq = replica.srv.stats().feed_last_seq;

  auto rcli = replica.connect();
  auto before = rcli.query_bitmap(keys);

  // The primary dies mid-topology (loop stopped, process state gone —
  // the replica sees the connection drop exactly as it would a crash).
  primary.reset();

  ASSERT_TRUE(wait_until(
      [&] { return replica.srv.stats().feed_attached == 0; }));
  auto stats = replica.srv.stats();
  EXPECT_EQ(stats.feed_lost, 1u);
  EXPECT_EQ(stats.feed_gaps, 0u);
  EXPECT_EQ(stats.feed_last_seq, last_seq);

  // Still serving, answers unchanged: the last acknowledged state holds.
  EXPECT_EQ(rcli.query_bitmap(keys), before);
  rcli.ping();
}

TEST(NetReplication, StreamGapsAndReplaysSurfaceInStats) {
  // Hand-rolled primary: a socketpair lets the test play the feed and
  // inject sequence discontinuities the real server never produces.
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  net::socket_fd ours(sp[0]), theirs(sp[1]);

  auto cfg = small_config(store::backend_kind::tcf);
  net::server srv(replica_config(), store::filter_store(cfg));
  srv.attach_feed(std::move(theirs), net::frame_decoder(), /*next_seq=*/1);
  std::thread loop([&] { srv.run(); });

  auto batch = [&](uint64_t seq, uint64_t seed) {
    auto keys = util::hashed_xorwow_items(64, seed);
    auto bytes = net::encode_keys_request(net::opcode::insert, seq, keys);
    ASSERT_TRUE(net::send_all(ours.get(), bytes.data(), bytes.size()));
  };
  batch(1, 51);
  batch(2, 52);
  ASSERT_TRUE(wait_until([&] { return srv.stats().feed_applied == 2; }));
  EXPECT_EQ(srv.stats().feed_gaps, 0u);
  const uint64_t size_at_2 = srv.store().size();

  batch(5, 53);  // jump: 3 and 4 lost in transit
  ASSERT_TRUE(wait_until([&] { return srv.stats().feed_applied == 3; }));
  EXPECT_EQ(srv.stats().feed_gaps, 1u);
  EXPECT_EQ(srv.stats().feed_last_seq, 5u);
  EXPECT_GT(srv.store().size(), size_at_2);  // the jump frame still applied

  const uint64_t size_at_5 = srv.store().size();
  batch(2, 54);  // replay of an old sequence: dropped, counted
  batch(6, 55);  // stream continues
  ASSERT_TRUE(wait_until([&] { return srv.stats().feed_last_seq == 6; }));
  EXPECT_EQ(srv.stats().feed_gaps, 2u);
  EXPECT_EQ(srv.stats().feed_applied, 4u);  // the replay was not applied
  EXPECT_GT(srv.store().size(), size_at_5);

  // Acks flowed back for every applied frame.
  net::frame_decoder dec;
  uint8_t buf[4096];
  int acks = 0;
  while (acks < 4) {
    ssize_t n = ::recv(ours.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    dec.feed(buf, static_cast<size_t>(n));
    net::frame f;
    while (dec.next(f) == net::decode_status::ok) {
      EXPECT_EQ(net::validate_response(f), nullptr);
      EXPECT_EQ(f.op, net::opcode::insert);
      ++acks;
    }
  }

  // The gap count rides STATS over the wire.
  net::client cli("127.0.0.1", srv.port());
  EXPECT_NE(cli.stats_json().find("\"feed_gaps\":2"), std::string::npos);

  srv.request_stop();
  loop.join();
}

TEST(NetReplication, ForwardedMaintainKeepsCascadesInLockstep) {
  // A 2x overflow flood with a tight auto-maintain cadence: the primary
  // grows cascades mid-stream and synthesizes MAINTAIN frames at the
  // exact stream positions, so the replica's cascade shapes — and
  // therefore every aliasing-sensitive answer — stay byte-identical.
  auto cfg = small_config(store::backend_kind::tcf, 1 << 12);
  net::server_config pcfg;
  pcfg.maintain_every = 4;
  live_server primary{store::filter_store(cfg), pcfg};
  live_server replica = make_replica(primary);

  auto cli = primary.connect();
  auto keys = util::hashed_xorwow_items((1 << 12) * 2, 961);
  std::span<const uint64_t> span(keys);
  for (size_t lo = 0; lo < keys.size(); lo += 512)
    cli.insert(span.subspan(lo, 512));
  ASSERT_TRUE(converged(primary, replica));

  uint32_t max_levels = 1;
  for (const auto& rep : primary.srv.store().report())
    max_levels = std::max(max_levels, rep.levels);
  EXPECT_GT(max_levels, 1u) << "flood never grew a cascade";

  // Lane-0 stream shape: the replica bootstrapped at sequence 0 and then
  // applied every frame gap-free, and its last sequence equals the count
  // it applied — so the stream, synthesized MAINTAIN frames included, is
  // exactly the plain sequences 1..n.
  const net::server_stats ps = primary.srv.stats();
  const net::server_stats rs = replica.srv.stats();
  EXPECT_GT(ps.repl_seq, keys.size() / 512) << "no cadence MAINTAIN frames";
  EXPECT_EQ(ps.repl_seq, rs.feed_last_seq);
  EXPECT_EQ(rs.feed_last_seq, rs.feed_applied);
  EXPECT_EQ(rs.feed_gaps, 0u);

  replica.stop();
  primary.stop();
  EXPECT_EQ(store::serialize_store(replica.srv.store()),
            store::serialize_store(primary.srv.store()));
}

TEST(NetReplication, InviteAttachesStandbyReplica) {
  auto cfg = small_config(store::backend_kind::tcf);
  // Standby first: read-only, empty, listening.
  live_server standby{store::filter_store(cfg), replica_config()};

  // The primary invites it at run() start (--replicate-to).
  net::server_config pcfg;
  pcfg.invite.push_back("127.0.0.1:" + std::to_string(standby.srv.port()));
  live_server primary{store::filter_store(cfg), pcfg};
  auto cli = primary.connect();
  auto keys = util::hashed_xorwow_items(12000, 971);
  cli.insert(keys);

  ASSERT_TRUE(wait_until(
      [&] { return standby.srv.stats().feed_attached == 1; }));
  ASSERT_TRUE(converged(primary, standby));
  EXPECT_EQ(primary.srv.stats().invites_failed, 0u);
  EXPECT_EQ(primary.srv.stats().subscribers, 1u);

  auto rcli = standby.connect();
  EXPECT_EQ(rcli.query_bitmap(keys), cli.query_bitmap(keys));
}

TEST(NetReplication, InviteToNonStandbyIsRefused) {
  // A live primary must never let an invite overwrite its store.
  live_server a{store::filter_store(small_config(store::backend_kind::tcf))};
  net::server_config pcfg;
  pcfg.invite.push_back("127.0.0.1:" + std::to_string(a.srv.port()));
  live_server b{store::filter_store(small_config(store::backend_kind::tcf)),
                pcfg};
  auto cli = b.connect();
  cli.insert(util::hashed_xorwow_items(100, 981));
  // a never attaches a feed; both keep serving independently.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(a.srv.stats().feed_attached, 0u);
  a.connect().ping();
}

TEST(NetReplication, ChainedReplicaForwardsDownstream) {
  live_server a{store::filter_store(small_config(store::backend_kind::tcf))};
  auto cli = a.connect();
  cli.insert(util::hashed_xorwow_items(8000, 991));

  live_server b = make_replica(a);
  // C syncs from B — a replica is a valid sync source.
  auto src = net::sync_from("127.0.0.1", b.srv.port());
  store::filter_store cst = std::move(src.store);
  live_server c(std::move(cst), std::move(src), replica_config());

  auto more = util::hashed_xorwow_items(8000, 992);
  cli.insert(more);
  cli.erase(std::span<const uint64_t>(more).subspan(0, 1000));

  // The whole chain settles to the root's stream position.
  ASSERT_TRUE(converged(a, b));
  ASSERT_TRUE(wait_until([&] {
    return c.srv.stats().repl_seq == a.srv.stats().repl_seq;
  }));

  auto ccli = c.connect();
  EXPECT_EQ(ccli.query_bitmap(more), cli.query_bitmap(more));

  c.stop();
  b.stop();
  a.stop();
  EXPECT_EQ(store::serialize_store(c.srv.store()),
            store::serialize_store(a.srv.store()));
}

TEST(NetReplication, NeverFedStandbyRefusesSync) {
  // Chaining off a standby that has not bootstrapped would hand the
  // downstream replica an empty snapshot whose lineage the standby's own
  // later bootstrap replaces — it must refuse until it has real data.
  live_server standby{store::filter_store(
                          small_config(store::backend_kind::tcf)),
                      replica_config()};
  EXPECT_THROW(net::sync_from("127.0.0.1", standby.srv.port()),
               std::runtime_error);
  standby.connect().ping();  // refusal was in-band; the server serves on

  // Once fed, the same server is a valid sync source (chaining).
  live_server primary{store::filter_store(
      small_config(store::backend_kind::tcf))};
  primary.connect().insert(util::hashed_xorwow_items(2000, 995));
  live_server replica = make_replica(primary);
  auto chained = net::sync_from("127.0.0.1", replica.srv.port());
  EXPECT_EQ(chained.store.size(), primary.srv.store().size());
}

TEST(NetReplication, ClientRefusesRawSyncSubmit) {
  live_server a{store::filter_store(small_config(store::backend_kind::tcf))};
  auto cli = a.connect();
  EXPECT_THROW(cli.submit_control(net::opcode::sync), std::invalid_argument);
  cli.ping();  // nothing was sent; the connection is fine
}

// -- Multi-reactor primaries --------------------------------------------------

TEST(NetReplication, MultiReactorPrimaryByteIdenticalReplica) {
  // A 4-reactor primary stamps each reactor's applied slices on its own
  // replication lane (net/lane.h).  A replica receives all four lanes over
  // its one feed connection — lane table in the bootstrap, per-lane
  // sequence tracking live — and must still end byte-identical: each
  // shard's operation stream is exactly one lane's, in lane order.  The
  // single-loop replica applies every lane itself; the 2-reactor one
  // routes each feed frame, MAINTAIN included, to the owners of its
  // shards.
  net::server_config pcfg;
  pcfg.reactors = 4;
  pcfg.maintain_every = 1;  // each reactor grows its slice before every part
  auto cfg = small_config(store::backend_kind::tcf);
  cfg.num_shards = 8;
  live_server primary{store::filter_store(cfg), pcfg};
  auto cli = primary.connect();

  // History before the replicas exist: the snapshot must carry the lane
  // table alongside it.
  auto base = util::hashed_xorwow_items(30000, 1901);
  cli.insert(base);

  live_server replica = make_replica(primary);
  net::server_config wide = replica_config();
  wide.reactors = 2;
  live_server wide_replica = make_replica(primary, wide);
  EXPECT_EQ(replica.srv.store().size(), primary.srv.store().size());
  EXPECT_EQ(wide_replica.srv.store().size(), primary.srv.store().size());

  // Live phase across every mutating opcode, partitioned to all four
  // reactors per batch.
  auto fresh = util::hashed_xorwow_items(20000, 1902);
  std::span<const uint64_t> fresh_span(fresh);
  for (size_t lo = 0; lo < fresh.size(); lo += 4000)
    cli.insert(fresh_span.subspan(lo, 4000));
  std::vector<uint64_t> counts(2000);
  for (size_t i = 0; i < counts.size(); ++i) counts[i] = 1 + i % 3;
  cli.insert_counted(fresh_span.subspan(0, 2000), counts);
  cli.erase(std::span<const uint64_t>(base).subspan(0, 5000));
  cli.maintain();  // each owner grows its slice, replicated ranged

  ASSERT_TRUE(converged(primary, replica));
  ASSERT_TRUE(converged(primary, wide_replica));

  std::vector<uint64_t> probes = base;
  probes.insert(probes.end(), fresh.begin(), fresh.end());
  auto absent = util::hashed_xorwow_items(50000, 1903);
  probes.insert(probes.end(), absent.begin(), absent.end());
  auto probe_counts = std::span<const uint64_t>(probes).subspan(20000, 20000);
  const auto want_bits = cli.query_bitmap(probes);
  const auto want_counts = cli.counts(probe_counts);

  // Each replica's first connection lands on its reactor 0, the feed's
  // owner, so its parts queue behind the feed's in the same mailboxes.
  for (live_server* r : {&replica, &wide_replica}) {
    auto rcli = r->connect();
    EXPECT_EQ(rcli.query_bitmap(probes), want_bits);
    EXPECT_EQ(rcli.counts(probe_counts), want_counts);
  }

  wide_replica.stop();
  replica.stop();
  primary.stop();
  const std::string bytes = store::serialize_store(primary.srv.store());
  EXPECT_EQ(store::serialize_store(replica.srv.store()), bytes);
  EXPECT_EQ(store::serialize_store(wide_replica.srv.store()), bytes);
}

TEST(NetReplication, MultiReactorReplicaChainsDownstream) {
  // replica A of a 4-reactor primary chain-forwards the lane-stamped
  // stream to replica B; all three converge to the same bytes.
  net::server_config pcfg;
  pcfg.reactors = 4;
  auto cfg = small_config(store::backend_kind::tcf);
  cfg.num_shards = 8;
  live_server primary{store::filter_store(cfg), pcfg};
  auto cli = primary.connect();
  cli.insert(util::hashed_xorwow_items(8000, 1911));

  live_server a = make_replica(primary);
  live_server b = make_replica(a);

  auto more = util::hashed_xorwow_items(12000, 1912);
  std::span<const uint64_t> span(more);
  for (size_t lo = 0; lo < more.size(); lo += 3000)
    cli.insert(span.subspan(lo, 3000));

  ASSERT_TRUE(converged(primary, a));
  ASSERT_TRUE(converged(primary, b));
  b.stop();
  a.stop();
  primary.stop();
  const std::string bytes = store::serialize_store(primary.srv.store());
  EXPECT_EQ(store::serialize_store(a.srv.store()), bytes);
  EXPECT_EQ(store::serialize_store(b.srv.store()), bytes);
}

TEST(NetReplication, MultiReactorReplicaMustBeReadOnly) {
  // A writable multi-reactor replica would stamp local lanes that collide
  // with its feed's — the server refuses the configuration outright.
  net::server_config cfg;
  cfg.reactors = 4;
  cfg.feed_addr = "127.0.0.1:1";  // never dialed; ctor must throw first
  EXPECT_THROW(
      net::server(std::move(cfg),
                  store::filter_store(small_config(store::backend_kind::tcf))),
      std::exception);
}
