// End-to-end loopback tests: a live net::server on an ephemeral port, a
// net::client driving it, and a direct filter_store fed the identical
// operation stream as the answer oracle.  Covers:
//   * answer equivalence for insert/query/erase/count batches (wire ==
//     direct, per key);
//   * the SNAPSHOT opcode + server-restart-from-file durability cycle;
//   * pipelined sequencing (responses matched by sequence id);
//   * hostile connections against a *live* server — garbage bytes,
//     truncated frames, oversized declared lengths — which must be
//     rejected (connection dropped, protocol_errors counted) while the
//     server keeps serving everyone else.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "net/socket.h"
#include "store/store.h"
#include "store/store_io.h"
#include "util/xorwow.h"
#include "util/zipf.h"

using namespace gf;

namespace {

store::store_config small_config(store::backend_kind backend) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = 4;
  cfg.capacity = 1 << 16;
  return cfg;
}

/// A server on an ephemeral loopback port with its event loop on a
/// background thread; joins cleanly on destruction.
struct live_server {
  net::server srv;
  std::thread loop;
  bool stopped = false;

  explicit live_server(store::filter_store st,
                       const std::string& snapshot_path = "")
      : live_server(std::move(st), make_config(snapshot_path)) {}
  live_server(store::filter_store st, net::server_config cfg)
      : srv(std::move(cfg), std::move(st)), loop([this] { srv.run(); }) {}
  ~live_server() { stop(); }
  /// Join the event loop; the store is then the caller's to inspect.
  void stop() {
    if (stopped) return;
    stopped = true;
    srv.request_stop();
    loop.join();
  }

  static net::server_config make_config(const std::string& snapshot_path) {
    net::server_config cfg;
    cfg.snapshot_path = snapshot_path;
    return cfg;
  }

  net::client connect() { return net::client("127.0.0.1", srv.port()); }
};

}  // namespace

TEST(NetLoopback, InsertQueryEquivalence) {
  for (auto backend :
       {store::backend_kind::tcf, store::backend_kind::gqf,
        store::backend_kind::blocked_bloom, store::backend_kind::bulk_tcf}) {
    auto cfg = small_config(backend);
    live_server ls{store::filter_store(cfg)};
    store::filter_store direct(cfg);
    auto cli = ls.connect();

    auto keys = util::hashed_xorwow_items(20000, 11);
    std::span<const uint64_t> span(keys);
    // Same chunked stream through both paths: wire inserts funnel into the
    // same insert_bulk machinery, so aggregate results must match exactly.
    for (size_t lo = 0; lo < keys.size(); lo += 4096) {
      auto slice = span.subspan(lo, std::min<size_t>(4096, keys.size() - lo));
      auto wire = cli.insert(slice);
      uint64_t direct_ok = direct.insert_bulk(slice);
      EXPECT_EQ(wire.ok, direct_ok);
      EXPECT_EQ(wire.failed, slice.size() - direct_ok);
    }

    // Membership answers must agree per key — inserted and absent alike.
    auto probes = util::hashed_xorwow_items(4096, 12);  // absent
    probes.insert(probes.end(), keys.begin(), keys.begin() + 4096);
    uint64_t hits = 0;
    auto bitmap = cli.query_bitmap(probes, &hits);
    uint64_t expect_hits = 0;
    for (size_t i = 0; i < probes.size(); ++i) {
      bool direct_ans = direct.contains(probes[i]);
      expect_hits += direct_ans ? 1 : 0;
      EXPECT_EQ(net::bitmap_test(bitmap, i), direct_ans)
          << "backend " << store::backend_name(backend) << " key " << i;
    }
    EXPECT_EQ(hits, expect_hits);
  }
}

// Counted inserts and erases over the wire land exactly as
// filter_store::apply() over the matching ops: the same (ok, failed) pair
// per frame and the same store bytes, on every backend and at 1 and 2
// reactors.  The frames take both shard paths: all-ones slices of at least
// kBulkRunMin keys go bulk, slices carrying counts above 1 (and short
// erase slices) go point by point.
TEST(NetLoopback, EraseAndCountEquivalence) {
  using kinds = std::vector<store::backend_kind>;
  for (auto backend :
       kinds{store::backend_kind::tcf, store::backend_kind::gqf,
             store::backend_kind::blocked_bloom,
             store::backend_kind::bulk_tcf}) {
    for (uint32_t reactors : {1u, 2u}) {
      SCOPED_TRACE(std::string(store::backend_name(backend)) + " x" +
                   std::to_string(reactors) + " reactors");
      auto cfg = small_config(backend);
      net::server_config scfg;
      scfg.reactors = reactors;
      scfg.maintain_every = 0;  // the reference never maintains
      live_server ls{store::filter_store(cfg), scfg};
      store::filter_store direct(cfg);
      auto cli = ls.connect();

      auto keys = util::hashed_xorwow_items(9000, 21);
      std::span<const uint64_t> span(keys);
      auto counted = [&](std::span<const uint64_t> k,
                         const std::vector<uint64_t>& c) {
        auto wire = cli.insert_counted(k, c);
        std::vector<store::op> ops;
        for (size_t i = 0; i < k.size(); ++i)
          ops.push_back(store::make_insert(k[i], c[i]));
        auto ref = direct.apply(ops);
        EXPECT_EQ(wire.ok, ref.inserted);
        EXPECT_EQ(wire.failed, ref.insert_failed);
      };
      auto erase = [&](std::span<const uint64_t> k) {
        auto wire = cli.erase(k);
        std::vector<store::op> ops;
        for (uint64_t key : k) ops.push_back(store::make_erase(key));
        auto ref = direct.apply(ops);
        EXPECT_EQ(wire.ok, ref.erased);
        EXPECT_EQ(wire.failed, ref.erase_missing);
      };

      // All ones, hundreds of keys per shard: the bulk path.
      counted(span.subspan(0, 4000), std::vector<uint64_t>(4000, 1));
      // Multiplicities 1..5: every shard slice carries counts above 1.
      std::vector<uint64_t> mixed(3000);
      for (size_t i = 0; i < mixed.size(); ++i) mixed[i] = 1 + i % 5;
      counted(span.subspan(4000, 3000), mixed);
      // One frame, both paths: shards 0-1 get all-ones slices (bulk),
      // shards 2-3 counts of 3 (point).  At 2 reactors that is one part
      // per path.
      auto split = span.subspan(7000, 2000);
      std::vector<uint64_t> by_shard(split.size());
      for (size_t i = 0; i < split.size(); ++i)
        by_shard[i] = direct.shard_of(split[i]) < 2 ? 1 : 3;
      counted(split, by_shard);
      // Erases: a bulk-sized frame, then one with a handful per shard.
      erase(span.subspan(1000, 3000));
      erase(span.subspan(5000, 12));

      // Multiplicities over the wire, erased and untouched keys alike.
      auto probe = span.subspan(0, 2000);
      auto wire_counts = cli.counts(probe);
      for (size_t i = 0; i < probe.size(); ++i)
        EXPECT_EQ(wire_counts[i], direct.count(probe[i])) << "key " << i;

      ls.stop();
      EXPECT_TRUE(store::serialize_store(ls.srv.store()) ==
                  store::serialize_store(direct))
          << "store bytes differ";
      for (uint32_t s = 0; s < cfg.num_shards; ++s) {
        const auto got = ls.srv.store().shard_at(s).stats();
        const auto want = direct.shard_at(s).stats();
        EXPECT_EQ(got.inserts, want.inserts) << "shard " << s;
        EXPECT_EQ(got.insert_failures, want.insert_failures) << "shard " << s;
        EXPECT_EQ(got.erases, want.erases) << "shard " << s;
        EXPECT_EQ(got.erase_failures, want.erase_failures) << "shard " << s;
      }
    }
  }
}

TEST(NetLoopback, PipelinedResponsesMatchBySequence) {
  auto cfg = small_config(store::backend_kind::tcf);
  live_server ls{store::filter_store(cfg)};
  auto cli = ls.connect();

  // Launch a window of distinct batches, then collect in *reverse* order:
  // sequence matching, not arrival order, pairs responses to requests.
  auto keys = util::hashed_xorwow_items(16 * 512, 31);
  std::vector<uint64_t> seqs;
  for (int b = 0; b < 16; ++b)
    seqs.push_back(cli.submit_insert(
        std::span<const uint64_t>(keys).subspan(b * 512, 512)));
  EXPECT_EQ(cli.outstanding(), 16u);
  uint64_t total_ok = 0;
  for (int b = 15; b >= 0; --b) {
    net::frame f = cli.expect_ok(seqs[b], net::opcode::insert);
    EXPECT_EQ(f.sequence, seqs[b]);
    total_ok += net::decode_pair_response(f).ok;
  }
  EXPECT_EQ(cli.outstanding(), 0u);
  EXPECT_EQ(total_ok, ls.srv.store().size());
}

TEST(NetLoopback, StatsMaintainAndPing) {
  auto cfg = small_config(store::backend_kind::tcf);
  live_server ls{store::filter_store(cfg)};
  auto cli = ls.connect();
  cli.ping();

  auto keys = util::hashed_xorwow_items(5000, 41);
  cli.insert(keys);
  std::string json = cli.stats_json();
  EXPECT_NE(json.find("\"backend\":\"tcf\""), std::string::npos);
  EXPECT_NE(json.find("\"items\":" + std::to_string(ls.srv.store().size())),
            std::string::npos);
  EXPECT_NE(json.find("\"shard_reports\":["), std::string::npos);

  auto m = cli.maintain();  // nothing under pressure yet: no growth
  EXPECT_EQ(m.shards_grown, 0u);
  EXPECT_EQ(m.max_depth, 1u);
  EXPECT_EQ(m.total_levels, cfg.num_shards);
}

TEST(NetLoopback, SnapshotRestartCycle) {
  const std::string path = "/tmp/gf_net_loopback_snapshot.gfs";
  std::remove(path.c_str());
  auto cfg = small_config(store::backend_kind::tcf);
  auto keys = util::hashed_xorwow_items(20000, 51);
  std::vector<uint64_t> pre_restart_bitmap;

  {
    live_server ls{store::filter_store(cfg), path};
    auto cli = ls.connect();
    cli.insert(keys);
    uint64_t bytes = cli.snapshot();
    EXPECT_GT(bytes, 0u);
    EXPECT_EQ(std::filesystem::file_size(path), bytes);
    pre_restart_bitmap = cli.query_bitmap(keys);
  }  // server stops — the old process is gone

  // A restarted server loads the snapshot, exactly like store_server
  // --snapshot does on boot, and must give bit-identical answers.
  {
    live_server ls{store::load_store(path)};
    auto cli = ls.connect();
    EXPECT_EQ(ls.srv.store().size(), store::load_store(path).size());
    auto bitmap = cli.query_bitmap(keys);
    EXPECT_EQ(bitmap, pre_restart_bitmap);
    // The restarted store keeps serving writes.
    auto more = util::hashed_xorwow_items(1000, 52);
    auto r = cli.insert(more);
    EXPECT_GT(r.ok, 0u);
  }
  std::remove(path.c_str());
}

TEST(NetLoopback, SnapshotWithoutPathIsUnsupported) {
  live_server ls{store::filter_store(small_config(store::backend_kind::tcf))};
  auto cli = ls.connect();
  EXPECT_THROW(cli.snapshot(), std::runtime_error);
  // The error response is in-band: the connection survives it.
  cli.ping();
}

TEST(NetLoopback, GarbageConnectionIsRejectedServerSurvives) {
  live_server ls{store::filter_store(small_config(store::backend_kind::tcf))};

  // Raw garbage bytes: the decoder poisons, the server drops the
  // connection and counts a protocol error.
  {
    net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
    std::vector<uint8_t> junk(512, 0xAB);
    ASSERT_TRUE(net::send_all(raw.get(), junk.data(), junk.size()));
    uint8_t buf[16];
    // recv returning 0 = orderly close by the server.
    ssize_t n = ::recv(raw.get(), buf, sizeof(buf), 0);
    EXPECT_EQ(n, 0);
  }

  // Oversized declared length: rejected from 4 bytes, no 4 GiB buffering.
  {
    net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
    std::vector<uint8_t> len;
    net::put_u32(len, 0xFFFF'FFF0u);
    ASSERT_TRUE(net::send_all(raw.get(), len.data(), len.size()));
    uint8_t buf[16];
    EXPECT_EQ(::recv(raw.get(), buf, sizeof(buf), 0), 0);
  }

  // Truncated frame: a valid prefix, then the peer hangs up mid-frame.
  {
    auto keys = util::hashed_xorwow_items(64, 61);
    auto bytes = net::encode_keys_request(net::opcode::insert, 1, keys);
    net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
    ASSERT_TRUE(net::send_all(raw.get(), bytes.data(), bytes.size() / 2));
  }  // close with half a frame on the wire

  // A correct frame followed by garbage: the response must come back
  // before the connection is condemned.
  {
    auto keys = util::hashed_xorwow_items(16, 62);
    auto good = net::encode_keys_request(net::opcode::insert, 7, keys);
    std::vector<uint8_t> stream = good;
    stream.resize(stream.size() + 64, 0xEE);
    net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
    ASSERT_TRUE(net::send_all(raw.get(), stream.data(), stream.size()));
    net::frame_decoder dec;
    uint8_t buf[4096];
    net::frame f;
    for (;;) {
      ssize_t n = ::recv(raw.get(), buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      dec.feed(buf, static_cast<size_t>(n));
      if (dec.next(f) == net::decode_status::ok) break;
    }
    EXPECT_EQ(f.sequence, 7u);
    EXPECT_EQ(net::decode_pair_response(f).ok, keys.size());
    EXPECT_EQ(::recv(raw.get(), buf, sizeof(buf), 0), 0);  // then dropped
  }

  // Through all of that, a well-behaved client still gets served.
  auto cli = ls.connect();
  cli.ping();
  auto keys = util::hashed_xorwow_items(1000, 63);
  EXPECT_EQ(cli.insert(keys).ok, 1000u);
  auto stats = ls.srv.stats();
  EXPECT_GE(stats.protocol_errors, 4u);
}

TEST(NetLoopback, ServerRunsMaintenanceUnderSkewedWireTraffic) {
  // A store flooded past nominal capacity over the wire must grow
  // overflow cascades on its own — no client ever sends MAINTAIN.
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = 2;
  cfg.capacity = 1 << 12;
  net::server_config scfg;
  scfg.maintain_every = 4;  // tight cadence so a small flood triggers it
  net::server srv(scfg, store::filter_store(cfg));
  std::thread loop([&] { srv.run(); });
  {
    net::client cli("127.0.0.1", srv.port());
    auto keys = util::hashed_xorwow_items(cfg.capacity * 2, 81);
    for (size_t lo = 0; lo < keys.size(); lo += 512)
      cli.insert(std::span<const uint64_t>(keys).subspan(lo, 512));
    uint32_t max_levels = 1;
    for (const auto& rep : srv.store().report())
      max_levels = std::max(max_levels, rep.levels);
    EXPECT_GT(max_levels, 1u) << "no shard grew despite a 2x flood";
  }
  srv.request_stop();
  loop.join();
}

TEST(NetLoopback, ResponseBackpressureBoundsServerMemory) {
  // A peer that pipelines requests but never reads responses must stall
  // (server stops reading past the queued-response cap) while other
  // clients keep being served.
  store::store_config cfg = small_config(store::backend_kind::tcf);
  net::server_config scfg;
  scfg.max_queued_response_bytes = 1 << 16;  // tiny cap to hit it fast
  net::server srv(scfg, store::filter_store(cfg));
  std::thread loop([&] { srv.run(); });
  {
    net::socket_fd greedy = net::tcp_connect("127.0.0.1", srv.port());
    net::set_nonblocking(greedy.get());
    // STATS responses are ~40x larger than their requests; spam them
    // without reading until the kernel send buffer refuses more.
    auto req = net::encode_control_request(net::opcode::stats, 1);
    size_t sent_frames = 0;
    while (sent_frames < 200000) {
      ssize_t w = ::send(greedy.get(), req.data(), req.size(), MSG_NOSIGNAL);
      if (w < 0) break;  // EAGAIN: backpressure reached the sender
      ++sent_frames;
    }
    EXPECT_GT(sent_frames, 0u);
    // The greedy connection is stalled, not fatal: a polite client on the
    // same server still gets answers.
    net::client cli("127.0.0.1", srv.port());
    cli.ping();
    auto keys = util::hashed_xorwow_items(512, 82);
    EXPECT_EQ(cli.insert(keys).ok, keys.size());
  }
  srv.request_stop();
  loop.join();
}

TEST(NetLoopback, MalformedFrameFuzzServerNeverDies) {
  live_server ls{store::filter_store(small_config(store::backend_kind::tcf))};
  util::xorwow rng(71);
  auto keys = util::hashed_xorwow_items(256, 72);
  auto valid = net::encode_keys_request(net::opcode::query, 1, keys);

  for (int round = 0; round < 50; ++round) {
    net::socket_fd raw = net::tcp_connect("127.0.0.1", ls.srv.port());
    std::vector<uint8_t> stream = valid;
    // A handful of byte flips anywhere in the frame.
    int flips = 1 + static_cast<int>(rng.next_below(6));
    for (int i = 0; i < flips; ++i)
      stream[rng.next_below(stream.size())] ^=
          static_cast<uint8_t>(1 + rng.next_below(255));
    // Random truncation half the time.
    if (rng.next_below(2))
      stream.resize(1 + rng.next_below(stream.size()));
    (void)net::send_all(raw.get(), stream.data(), stream.size());
    // Drain whatever comes back (a response if the flip was benign, EOF if
    // condemned) without blocking forever: close our side first.
  }

  // The server survived 50 hostile connections and still serves.
  auto cli = ls.connect();
  cli.ping();
  uint64_t hits = 0;
  cli.query_bitmap(keys, &hits);
  SUCCEED();
}
