// Multi-reactor wire path tests: a net::server running N event loops
// (server_config::reactors), each owning a disjoint contiguous shard
// slice, with accepted connections distributed round-robin.  Covers:
//   * answer equivalence at 4 reactors — batches grouped by shard once,
//     each reactor applying its slice's run, and folded back must answer
//     exactly like the single-loop server and a direct store;
//   * the shutdown fan-out regression: request_stop() must wake *every*
//     reactor, including ones whose only connections are idle or parked
//     mid-frame — a stop that only woke reactor 0 deadlocks the join;
//   * control-plane ops (STATS/SNAPSHOT) executing on reactor 0 under the
//     stop-the-world barrier while data traffic flows, at one reactor and
//     at four, and reading the writes pipelined ahead of them on the same
//     connection;
//   * MAINTAIN, client-sent or the cadence's, running on each slice's
//     owner with no barrier at all;
//   * reactor-count clamping (more reactors than shards).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <span>
#include <sstream>
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

using namespace gf;

namespace {

store::store_config shard_config(uint32_t shards = 8) {
  store::store_config cfg;
  cfg.backend = store::backend_kind::tcf;
  cfg.num_shards = shards;
  cfg.capacity = 1 << 16;
  return cfg;
}

struct live_server {
  net::server srv;
  std::thread loop;

  live_server(net::server_config cfg, store::filter_store st)
      : srv(std::move(cfg), std::move(st)), loop([this] { srv.run(); }) {}
  ~live_server() {
    srv.request_stop();
    if (loop.joinable()) loop.join();
  }

  net::client connect() { return net::client("127.0.0.1", srv.port()); }
};

net::server_config reactor_config(uint32_t reactors) {
  net::server_config cfg;
  cfg.reactors = reactors;
  return cfg;
}

/// Drive one server and a direct store with the same stream, then compare
/// every QUERY bitmap bit and COUNT value.  `grow` shrinks the store so
/// MAINTAIN (sent to both sides after each chunk) grows overflow levels.
void expect_wire_matches_direct(store::backend_kind backend,
                                uint32_t reactors, bool grow) {
  const std::string ctx = std::string(store::backend_name(backend)) +
                          " reactors=" + std::to_string(reactors) +
                          (grow ? " grown" : " flat");
  auto scfg = shard_config();
  scfg.backend = backend;
  if (grow) scfg.capacity = 1 << 13;
  net::server_config ncfg = reactor_config(reactors);
  ncfg.maintain_every = 0;  // growth only where both sides maintain
  live_server ls{std::move(ncfg), store::filter_store(scfg)};
  store::filter_store direct(scfg);
  auto cli = ls.connect();

  auto keys = util::hashed_xorwow_items(20000, 23);
  std::span<const uint64_t> span(keys);
  for (size_t off = 0; off < keys.size(); off += 4096) {
    auto chunk = span.subspan(off, std::min<size_t>(4096, keys.size() - off));
    const auto wire = cli.insert(chunk);
    std::vector<uint64_t> copy(chunk.begin(), chunk.end());
    const uint64_t direct_ok = direct.insert_bulk(copy);
    EXPECT_EQ(wire.ok, direct_ok) << ctx;
    if (grow) {
      // Each owner grows its slice; the folded reply is the whole store's.
      const net::maintain_reply wire_m = cli.maintain();
      const auto direct_m = direct.maintain();
      EXPECT_EQ(wire_m.shards_grown, direct_m.shards_grown) << ctx;
      EXPECT_EQ(wire_m.max_depth, direct_m.max_depth) << ctx;
      EXPECT_EQ(wire_m.total_levels, direct_m.total_levels) << ctx;
    }
  }
  if (grow) {
    uint32_t depth = 1;
    for (const auto& r : direct.report()) depth = std::max(depth, r.levels);
    ASSERT_GT(depth, 1u) << ctx;
  }
  // Multiplicities above one, so COUNT answers more than membership.
  const std::vector<uint64_t> hot(keys.begin(), keys.begin() + 64);
  const std::vector<uint64_t> threes(hot.size(), 3);
  cli.insert_counted(hot, threes);
  std::vector<store::op> hot_ops;
  for (uint64_t k : hot) hot_ops.push_back(store::make_insert(k, 3));
  direct.apply(hot_ops);

  // Membership: the wire bitmap must agree with the direct store per key
  // (both sides saw the identical stream, partitioned or not).
  auto probes = util::hashed_xorwow_items(30000, 57);
  for (size_t i = 0; i < keys.size(); i += 3) probes.push_back(keys[i]);
  const auto bitmap = cli.query_bitmap(std::span<const uint64_t>(probes));
  for (size_t i = 0; i < probes.size(); ++i) {
    const bool wire_hit = (bitmap[i >> 6] >> (i & 63)) & 1;
    ASSERT_EQ(wire_hit, direct.contains(probes[i])) << ctx << " probe " << i;
  }

  // Counts fold back from every owner into one positional vector.
  std::vector<uint64_t> cprobes(hot);
  cprobes.insert(cprobes.end(), probes.begin(), probes.begin() + 2048);
  const auto wire_counts = cli.counts(std::span<const uint64_t>(cprobes));
  ASSERT_EQ(wire_counts.size(), cprobes.size()) << ctx;
  for (size_t i = 0; i < cprobes.size(); ++i)
    ASSERT_EQ(wire_counts[i], direct.count(cprobes[i]))
        << ctx << " count " << i;
}

/// The store's item count from a STATS JSON report.
uint64_t items_of(const std::string& js) {
  const size_t at = js.find("\"items\":");
  EXPECT_NE(at, std::string::npos) << js.substr(0, 160);
  return at == std::string::npos ? 0 : std::stoull(js.substr(at + 8));
}

}  // namespace

TEST(NetReactor, FourReactorEquivalence) {
  auto scfg = shard_config();
  live_server ls{reactor_config(4), store::filter_store(scfg)};
  store::filter_store direct(scfg);
  auto cli = ls.connect();

  auto keys = util::hashed_xorwow_items(20000, 23);
  std::span<const uint64_t> span(keys);
  for (size_t off = 0; off < keys.size(); off += 4096) {
    auto chunk = span.subspan(off, std::min<size_t>(4096, keys.size() - off));
    const auto wire = cli.insert(chunk);
    std::vector<uint64_t> copy(chunk.begin(), chunk.end());
    EXPECT_EQ(wire.ok, direct.insert_bulk(copy));
  }

  // Erase a slice and re-check.
  auto victims = std::span<const uint64_t>(keys).subspan(0, 5000);
  const auto wire_erase = cli.erase(victims);
  std::vector<store::op> ops;
  for (uint64_t k : victims) ops.push_back(store::make_erase(k));
  const auto direct_erase = direct.apply(ops);
  EXPECT_EQ(wire_erase.ok, direct_erase.erased);
  EXPECT_EQ(wire_erase.failed, direct_erase.erase_missing);

  // QUERY and COUNT answers, TCF and GQF, flat and grown cascades, on the
  // single-loop path and the multi-reactor path.
  for (auto backend : {store::backend_kind::tcf, store::backend_kind::gqf})
    for (uint32_t reactors : {1u, 4u})
      for (bool grow : {false, true})
        expect_wire_matches_direct(backend, reactors, grow);
}

// Frames whose parts are not a plain per-reactor split of the batch: one
// whose keys all fall in reactor 3's slice (shards [6, 8)), so the one
// remote part is the whole batch; duplicates spread across every slice;
// INSERT_COUNTED with counts above one; an ERASE.  Every reply, QUERY bit
// and COUNT value, and the store's save() bytes, must equal a direct
// store's that took the same batches.
TEST(NetReactor, GroupedPartsAnswerLikeDirectStore) {
  for (auto backend : {store::backend_kind::tcf, store::backend_kind::gqf}) {
    const std::string ctx = store::backend_name(backend);
    auto scfg = shard_config();
    scfg.backend = backend;
    net::server_config ncfg = reactor_config(4);
    ncfg.maintain_every = 0;
    live_server ls{std::move(ncfg), store::filter_store(scfg)};
    store::filter_store direct(scfg);
    auto cli = ls.connect();  // on reactor 0

    std::vector<uint64_t> last, spread, counts;
    for (uint64_t k : util::hashed_xorwow_items(16384, 801))
      if (direct.shard_of(k) >= 6 && last.size() < 2048) last.push_back(k);
    ASSERT_EQ(last.size(), 2048u);
    const auto pool = util::hashed_xorwow_items(1500, 802);
    for (size_t i = 0; i < 3000; ++i) spread.push_back(pool[i * 7 % 1500]);
    for (size_t i = 0; i < spread.size(); ++i) counts.push_back(2 + i % 5);
    std::vector<uint64_t> victims(spread.begin(), spread.begin() + 700);
    victims.insert(victims.end(), last.begin(), last.begin() + 300);

    EXPECT_EQ(cli.insert(std::span<const uint64_t>(last)).ok,
              direct.insert_bulk(last))
        << ctx;
    EXPECT_EQ(cli.insert(std::span<const uint64_t>(spread)).ok,
              direct.insert_bulk(spread))
        << ctx;
    EXPECT_EQ(cli.insert_counted(spread, counts).ok,
              direct.insert_counted(spread, counts))
        << ctx;
    const auto wire_erase = cli.erase(std::span<const uint64_t>(victims));
    const uint64_t direct_erased = direct.erase_bulk(victims);
    EXPECT_EQ(wire_erase.ok, direct_erased) << ctx;
    EXPECT_EQ(wire_erase.failed, victims.size() - direct_erased) << ctx;

    // Reads of each shape: one slice's keys, duplicates across slices
    // mixed with never-inserted keys.
    auto mixed = spread;
    for (uint64_t k : util::hashed_xorwow_items(2000, 803)) mixed.push_back(k);
    for (const auto* probes : {&last, &mixed}) {
      std::span<const uint64_t> span(*probes);
      const auto bitmap = cli.query_bitmap(span);
      const auto wire_counts = cli.counts(span);
      std::vector<uint8_t> hit(span.size());
      std::vector<uint64_t> count(span.size());
      direct.contains_each(span, hit);
      direct.count_each(span, count);
      ASSERT_EQ(wire_counts.size(), span.size()) << ctx;
      for (size_t i = 0; i < span.size(); ++i) {
        ASSERT_EQ((bitmap[i >> 6] >> (i & 63)) & 1, hit[i]) << ctx << " " << i;
        ASSERT_EQ(wire_counts[i], count[i]) << ctx << " " << i;
      }
    }

    ls.srv.request_stop();
    ls.loop.join();
    std::ostringstream wire_bytes, direct_bytes;
    store::save_store(ls.srv.store(), wire_bytes);
    store::save_store(direct, direct_bytes);
    EXPECT_TRUE(wire_bytes.str() == direct_bytes.str()) << ctx;
  }
}

TEST(NetReactor, ControlPlaneUnderTraffic) {
  // STATS runs on reactor 0 under the stop-the-world barrier at every
  // reactor count: inline when it arrives there, posted to it otherwise.
  // MAINTAIN is routed to the owners of the slices it grows.
  for (uint32_t reactors : {1u, 4u}) {
    live_server ls{reactor_config(reactors),
                   store::filter_store(shard_config())};

    // Background data traffic across several connections (round-robin
    // lands them on different reactors) while control ops stop the world.
    std::atomic<bool> stop{false};
    std::thread pounder([&] {
      auto cli = ls.connect();
      auto keys = util::hashed_xorwow_items(512, 91);
      while (!stop.load(std::memory_order_relaxed)) {
        cli.insert(std::span<const uint64_t>(keys));
        cli.query_bitmap(std::span<const uint64_t>(keys));
      }
    });

    auto cli = ls.connect();
    const std::string want = "\"reactors\":" + std::to_string(reactors);
    for (int i = 0; i < 10; ++i) {
      const std::string js = cli.stats_json();
      EXPECT_NE(js.find(want), std::string::npos) << reactors;
      const auto m = cli.maintain();
      (void)m;
      cli.ping();
    }
    // Per-reactor gauge families exist only when there are reactors to
    // tell apart (the one-reactor exposition is the pre-lane schema).
    const std::string metrics = cli.metrics_text();
    EXPECT_EQ(metrics.find("gf_reactor_handoffs_total") != std::string::npos,
              reactors > 1);
    stop.store(true, std::memory_order_relaxed);
    pounder.join();
  }
}

TEST(NetReactor, SnapshotOnReactorZero) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "gf_reactor_snapshot_test.gfsnap";
  for (uint32_t reactors : {1u, 4u}) {
    std::remove(path.c_str());
    net::server_config cfg = reactor_config(reactors);
    cfg.snapshot_path = path;
    live_server ls{std::move(cfg), store::filter_store(shard_config())};
    auto cli = ls.connect();
    auto keys = util::hashed_xorwow_items(4096, 7);
    cli.insert(std::span<const uint64_t>(keys));
    const uint64_t bytes = cli.snapshot();
    EXPECT_GT(bytes, 0u) << reactors;
    EXPECT_TRUE(std::filesystem::exists(path)) << reactors;
  }
  std::remove(path.c_str());
}

// Read-your-writes through the control plane: a STATS and a SNAPSHOT
// pipelined behind INSERT/ERASE frames on one connection must observe
// those frames — whether the connection's reactor runs the control op
// inline (reactor 0) or posts it to reactor 0 behind the batch parts it
// already handed to other reactors.
TEST(NetReactor, ControlOpsReadTheirOwnWrites) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "gf_reactor_ryw_test.gfsnap";
  for (uint32_t reactors : {1u, 4u}) {
    std::remove(path.c_str());
    net::server_config cfg = reactor_config(reactors);
    cfg.snapshot_path = path;
    live_server ls{std::move(cfg), store::filter_store(shard_config())};
    // Accept is round-robin from reactor 0: the first connection lands on
    // reactor 0, the second on reactor 1 (at one reactor, both on 0).
    auto on_zero = ls.connect();
    on_zero.ping();
    auto on_one = ls.connect();
    on_one.ping();

    // Every key belongs to the last reactor's slice (shards [6, 8) at four
    // reactors), so neither requesting reactor applies any of it itself:
    // the control op must wait for a part it handed off.
    const store::filter_store layout(shard_config());
    uint64_t items = 0;
    uint64_t seed = 300;
    for (int round = 0; round < 8; ++round) {
      net::client* cli = round % 2 == 0 ? &on_zero : &on_one;
      const std::string ctx = "reactors=" + std::to_string(reactors) +
                              (cli == &on_zero ? " conn on 0" : " conn on 1") +
                              " round " + std::to_string(round);
      std::vector<uint64_t> keys;
      for (uint64_t k : util::hashed_xorwow_items(8192, ++seed))
        if (layout.shard_of(k) >= 6 && keys.size() < 1024) keys.push_back(k);
      ASSERT_EQ(keys.size(), 1024u);
      std::span<const uint64_t> span(keys);
      const uint64_t s_ins = cli->submit_insert(span);
      const uint64_t s_erase = cli->submit_erase(span.subspan(0, 256));
      const uint64_t s_stats = cli->submit_control(net::opcode::stats);
      const uint64_t s_snap = cli->submit_control(net::opcode::snapshot);

      ASSERT_EQ(net::decode_pair_response(
                    cli->expect_ok(s_ins, net::opcode::insert))
                    .ok,
                keys.size())
          << ctx;
      ASSERT_EQ(net::decode_pair_response(
                    cli->expect_ok(s_erase, net::opcode::erase))
                    .ok,
                256u)
          << ctx;
      const uint64_t pipelined = items_of(
          net::decode_text(cli->expect_ok(s_stats, net::opcode::stats)));
      cli->expect_ok(s_snap, net::opcode::snapshot);
      // Every part has folded back by now: a fresh STATS is the truth.
      const uint64_t settled = items_of(cli->stats_json());
      EXPECT_GT(settled, items) << ctx;
      items = settled;
      EXPECT_EQ(pipelined, settled) << ctx;
      const store::filter_store snap = store::load_store(path);
      EXPECT_EQ(snap.size(), settled) << ctx;
      for (size_t i = 256; i < keys.size(); ++i)
        ASSERT_TRUE(snap.contains(keys[i])) << ctx << " key " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(NetReactor, DataPathTakesNoBarrier) {
  // Every data frame — MAINTAIN and the cadence's growth passes (here one
  // before every part) included — runs on the reactors that own its
  // shards.  Only the closing STATS stops the world.
  for (uint32_t reactors : {1u, 2u, 4u}) {
    const std::string ctx = "reactors=" + std::to_string(reactors);
    net::server_config cfg = reactor_config(reactors);
    cfg.maintain_every = 1;
    live_server ls{std::move(cfg), store::filter_store(shard_config())};
    // Round-robin accept: on reactor 0, then on reactor 1 (at one
    // reactor, both on 0).
    auto on_zero = ls.connect();
    on_zero.ping();
    auto on_one = ls.connect();
    on_one.ping();

    uint64_t seed = 500;
    for (net::client* cli : {&on_zero, &on_one}) {
      const auto keys = util::hashed_xorwow_items(2048, ++seed);
      std::span<const uint64_t> span(keys);
      const std::vector<uint64_t> twos(512, 2);
      const uint64_t s_ins = cli->submit_insert(span);
      const uint64_t s_cnt =
          cli->submit_insert_counted(span.subspan(0, 512), twos);
      const uint64_t s_erase = cli->submit_erase(span.subspan(1024, 256));
      const uint64_t s_maint = cli->submit_control(net::opcode::maintain);
      EXPECT_EQ(net::decode_pair_response(
                    cli->expect_ok(s_ins, net::opcode::insert))
                    .ok,
                keys.size())
          << ctx;
      cli->expect_ok(s_cnt, net::opcode::insert_counted);
      cli->expect_ok(s_erase, net::opcode::erase);
      const net::maintain_reply m = net::decode_maintain_response(
          cli->expect_ok(s_maint, net::opcode::maintain));
      EXPECT_GE(m.total_levels, 8u) << ctx << ": every shard reports";
    }
    EXPECT_EQ(ls.srv.stats().barriers, 0u) << ctx;

    // The STATS JSON is rendered inside its own barrier.
    const std::string js = on_one.stats_json();
    const std::string key = "\"barriers\":";
    const size_t at = js.find(key);
    ASSERT_NE(at, std::string::npos) << ctx;
    EXPECT_EQ(std::stoull(js.substr(at + key.size())), 1u) << ctx;
  }
}

TEST(NetReactor, ReactorCountClampsToShards) {
  // 2 shards cannot feed 8 reactors: the server must clamp, not crash,
  // and still answer correctly.
  live_server ls{reactor_config(8), store::filter_store(shard_config(2))};
  auto cli = ls.connect();
  auto keys = util::hashed_xorwow_items(2000, 3);
  const auto r = cli.insert(std::span<const uint64_t>(keys));
  EXPECT_GT(r.ok, 0u);
  uint64_t hits = 0;
  cli.query_bitmap(std::span<const uint64_t>(keys), &hits);
  EXPECT_EQ(hits, keys.size());
}

// The regression this file exists for: stopping a multi-reactor server
// whose reactors are blocked in poll() with nothing but idle (or
// half-written) connections.  A request_stop() that only wakes one loop
// leaves the others parked forever and the join below never returns.
TEST(NetReactor, StopWakesEveryReactorIdleConnections) {
  auto ls = std::make_unique<live_server>(reactor_config(4),
                                          store::filter_store(shard_config()));
  // Enough raw connections that round-robin puts at least one on every
  // reactor; none of them ever sends a byte.
  std::vector<net::socket_fd> idle;
  for (int i = 0; i < 8; ++i)
    idle.push_back(net::tcp_connect("127.0.0.1", ls->srv.port()));
  // One more parked mid-frame: a valid length prefix, then silence — the
  // owning reactor has consumed bytes and is waiting for the rest.
  net::socket_fd partial = net::tcp_connect("127.0.0.1", ls->srv.port());
  std::vector<uint8_t> req;
  net::encode_control_request(net::opcode::ping, 1).swap(req);
  ASSERT_GT(req.size(), 4u);
  ASSERT_TRUE(net::send_all(partial.get(), req.data(), req.size() / 2));
  // Give the reactors a moment to adopt the handed-off fds so the stop
  // path races against genuinely-parked loops, not empty ones.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<bool> joined{false};
  std::thread watchdog([&] {
    for (int i = 0; i < 100 && !joined.load(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (!joined.load()) {
      fprintf(stderr, "FATAL: multi-reactor stop deadlocked\n");
      fflush(stderr);
      std::abort();
    }
  });
  ls.reset();  // request_stop() + join inside ~live_server
  joined.store(true);
  watchdog.join();
  SUCCEED();
}

TEST(NetReactor, StopStartCycleRepeats) {
  // run()/request_stop() must be reusable: stale stop flags or wake-pipe
  // bytes from round N must not leak into round N+1.
  net::server srv(reactor_config(4), store::filter_store(shard_config()));
  for (int round = 0; round < 3; ++round) {
    std::thread loop([&] { srv.run(); });
    {
      net::client cli("127.0.0.1", srv.port());
      auto keys = util::hashed_xorwow_items(256, 10 + round);
      const auto r = cli.insert(std::span<const uint64_t>(keys));
      EXPECT_GT(r.ok, 0u);
    }
    srv.request_stop();
    loop.join();
  }
}
