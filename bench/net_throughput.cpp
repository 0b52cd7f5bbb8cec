// net_throughput: wire throughput vs in-process bulk throughput.
//
// The protocol's bet (src/net/frame.h) is that a batch-unit wire format
// carries the paper's batch-amortization lesson across the network
// boundary: once frames hold thousands of keys and the client pipelines,
// the socket stops being the bottleneck and wire throughput converges on
// what the store does in-process.  This bench measures exactly that —
// a sweep of batch size × client connections over loopback, inserts then
// queries, against an in-process baseline driven at the *same* batch size
// (chunked filter_store::insert_bulk / count_contained), so the ratio
// isolates pure wire overhead: framing, CRC, syscalls, loopback copies.
//
// Expectations on any host: tiny batches lose big (per-frame overhead
// dominates, the round trips serialize), 4 Ki-key pipelined batches land
// within a small factor of in-process — the acceptance line at the end
// asserts the ≥ 50% convergence target this PR ships against.
//
// The replicated column measures the same phases through a two-node
// topology (net/replication.h): inserts against a primary that is live-
// streaming every mutating batch to an attached replica (the forwarding
// tax), queries against the replica itself (the read-scaling payoff).
//
// The reactor sweep re-runs the best-converged configuration (largest
// batch, max connections) against a server running 1..N reactors
// (server_config::reactors): each event loop owns a contiguous shard
// slice, batches partition per key at decode time, and the sweep shows
// whether one poll loop was the bottleneck.  On a multi-core host the
// multi-reactor insert row should pull ahead of the single-loop row; on
// a single core the sweep documents the handoff overhead instead (CI
// gates its 4-vs-1 assertion on the runner's core count).
//
// Flags (bench/harness.h): --full sweeps more keys; plus
//   --backend tcf|gqf|bbf|btcf   store backend (default tcf)
//   --reactors N                 cap the reactor sweep at N loops
//                                (default 4; 1 skips the sweep)
//   --json FILE                  append one JSON object per measurement
//                                (schema: BENCH_net_throughput.json) so CI
//                                can track the perf trajectory per PR
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "net/client.h"
#include "net/replication.h"
#include "net/server.h"
#include "store/store.h"
#include "util/json.h"
#include "util/timer.h"
#include "util/xorwow.h"

using namespace gf;

namespace {

constexpr size_t kBatchSizes[] = {256, 1024, 4096};
constexpr int kConnCounts[] = {1, 2, 4};
constexpr size_t kWindow = 8;  ///< pipelined frames in flight per connection

FILE* g_json = nullptr;

void emit_json(store::backend_kind backend, const char* phase, size_t batch,
               int conns, const char* metric, double value,
               uint32_t reactors = 1) {
  if (!g_json) return;
  // One JSON-line per measurement, same writer/format discipline as
  // store_scaling's emitter — the trajectory schema CI assembles into
  // BENCH_net_throughput.json.  conns is 0 for rows that aren't a
  // per-connection wire measurement (in-proc, replicated, ratios);
  // reactors is 1 everywhere except the reactor sweep's rows.
  util::json_writer w;
  w.object_begin()
      .field("bench", "net_throughput")
      .field("backend", store::backend_name(backend))
      .field("phase", phase)
      .field("batch", static_cast<uint64_t>(batch))
      .field("conns", static_cast<uint64_t>(conns))
      .field("reactors", static_cast<uint64_t>(reactors))
      .field("metric", metric)
      .field("value", value, 4)
      .object_end();
  std::fprintf(g_json, "%s\n", w.str().c_str());
}

store::filter_store make_store(store::backend_kind backend, uint64_t n,
                               uint32_t shards = 4) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = shards;
  cfg.capacity = n + n / 2;  // headroom: refusals would distort timing
  return store::filter_store(cfg);
}

/// One client connection's share of a phase: insert or query its key slice
/// in `batch`-key frames, `kWindow` in flight.
void drive(net::client& cli, std::span<const uint64_t> keys, size_t batch,
           bool inserts) {
  std::vector<uint64_t> seqs;
  seqs.reserve(kWindow);
  size_t settled = 0;
  for (size_t lo = 0; lo < keys.size(); lo += batch) {
    auto slice = keys.subspan(lo, std::min(batch, keys.size() - lo));
    seqs.push_back(inserts ? cli.submit_insert(slice)
                           : cli.submit_query(slice));
    if (seqs.size() - settled >= kWindow) cli.wait(seqs[settled++]);
  }
  while (settled < seqs.size()) cli.wait(seqs[settled++]);
}

struct phase_result {
  double wire_mops[std::size(kConnCounts)] = {};
  double repl_mops = 0;  ///< replicated topology (see header comment)
  double inproc_mops = 0;
};

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::options::parse(argc, argv);
  store::backend_kind backend = store::backend_kind::tcf;
  uint32_t max_reactors = 4;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--reactors") && i + 1 < argc) {
      const int v = std::atoi(argv[++i]);
      max_reactors = static_cast<uint32_t>(v < 1 ? 1 : (v > 16 ? 16 : v));
    } else if (!std::strcmp(argv[i], "--backend") && i + 1 < argc) {
      const char* b = argv[++i];
      if (!std::strcmp(b, "gqf")) backend = store::backend_kind::gqf;
      else if (!std::strcmp(b, "bbf"))
        backend = store::backend_kind::blocked_bloom;
      else if (!std::strcmp(b, "btcf"))
        backend = store::backend_kind::bulk_tcf;
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      g_json = std::fopen(argv[i + 1], "w");
      if (!g_json) {
        std::fprintf(stderr, "net_throughput: cannot open %s\n", argv[i + 1]);
        return 2;
      }
      ++i;
    }
  }
  const uint64_t n = uint64_t{1} << (opts.full ? 21 : 19);

  bench::print_banner(
      "net_throughput: wire batches vs in-process bulk over loopback",
      "store network service (beyond the paper; batch lesson of §4.2/§5.4)");
  std::printf("backend: %s, %lu keys per phase, window %zu, loopback TCP\n",
              store::backend_name(backend), static_cast<unsigned long>(n),
              kWindow);

  auto keys = util::hashed_xorwow_items(n, 4242);

  std::vector<std::string> cols;
  for (int c : kConnCounts) cols.push_back(std::to_string(c) + "-conn");
  cols.push_back("replicated");
  cols.push_back("in-proc");
  cols.push_back("best/inproc");

  phase_result insert_res[std::size(kBatchSizes)];
  phase_result query_res[std::size(kBatchSizes)];

  for (size_t bi = 0; bi < std::size(kBatchSizes); ++bi) {
    const size_t batch = kBatchSizes[bi];

    // In-process baseline at the same batch size: what the store does when
    // the batches arrive by function call instead of by socket.
    {
      auto st = make_store(backend, n);
      insert_res[bi].inproc_mops = bench::time_mops(n, [&] {
        for (size_t lo = 0; lo < keys.size(); lo += batch)
          st.insert_bulk(std::span<const uint64_t>(keys).subspan(
              lo, std::min(batch, keys.size() - lo)));
      });
      query_res[bi].inproc_mops = bench::best_mops(3, n, [&] {
        for (size_t lo = 0; lo < keys.size(); lo += batch)
          st.count_contained(std::span<const uint64_t>(keys).subspan(
              lo, std::min(batch, keys.size() - lo)));
      });
    }

    for (size_t ci = 0; ci < std::size(kConnCounts); ++ci) {
      const int conns = kConnCounts[ci];
      net::server srv({}, make_store(backend, n));
      std::thread loop([&] { srv.run(); });

      auto run_phase = [&](bool inserts) {
        std::vector<std::thread> workers;
        util::wall_timer timer;
        for (int c = 0; c < conns; ++c) {
          size_t lo = keys.size() * static_cast<size_t>(c) /
                      static_cast<size_t>(conns);
          size_t hi = keys.size() * static_cast<size_t>(c + 1) /
                      static_cast<size_t>(conns);
          workers.emplace_back([&, lo, hi] {
            net::client cli("127.0.0.1", srv.port());
            drive(cli, std::span<const uint64_t>(keys).subspan(lo, hi - lo),
                  batch, inserts);
          });
        }
        for (auto& w : workers) w.join();
        return util::mops(n, timer.seconds());
      };

      insert_res[bi].wire_mops[ci] = run_phase(/*inserts=*/true);
      // Queries are idempotent, so best-of-3 like the in-process baseline
      // (bench::best_mops): read-only passes deserve equal cache warmth on
      // both sides of the ratio.
      for (int rep = 0; rep < 3; ++rep)
        query_res[bi].wire_mops[ci] = std::max(
            query_res[bi].wire_mops[ci], run_phase(/*inserts=*/false));

      srv.request_stop();
      loop.join();
    }

    // Replicated topology: a primary forwarding its mutation stream to one
    // attached replica.  Inserts hit the primary (per-batch forwarding is
    // the measured tax); queries hit the replica — after waiting for the
    // stream to settle so it answers the full key set.
    {
      net::server primary({}, make_store(backend, n));
      std::thread ploop([&] { primary.run(); });
      auto sr = net::sync_from("127.0.0.1", primary.port());
      net::server_config rcfg;
      rcfg.read_only = true;
      net::server replica(rcfg, std::move(sr.store));
      replica.attach_feed(std::move(sr.feed), std::move(sr.dec),
                          sr.repl_seq + 1);
      std::thread rloop([&] { replica.run(); });

      {
        net::client cli("127.0.0.1", primary.port());
        util::wall_timer timer;
        drive(cli, keys, batch, /*inserts=*/true);
        insert_res[bi].repl_mops = util::mops(n, timer.seconds());
      }
      // Replication is asynchronous: wait until the replica acknowledged
      // the primary's whole stream before timing reads against it.
      while (replica.stats().feed_last_seq <
             primary.stats().repl_seq)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      for (int rep = 0; rep < 3; ++rep) {
        net::client cli("127.0.0.1", replica.port());
        util::wall_timer timer;
        drive(cli, keys, batch, /*inserts=*/false);
        query_res[bi].repl_mops = std::max(
            query_res[bi].repl_mops, util::mops(n, timer.seconds()));
      }

      replica.request_stop();
      rloop.join();
      primary.request_stop();
      ploop.join();
    }
  }

  auto print_phase = [&](const char* label, const phase_result* res) {
    bench::print_series_header(label, cols, "keys/frame");
    for (size_t bi = 0; bi < std::size(kBatchSizes); ++bi) {
      double best = 0;
      std::vector<double> vals;
      for (double v : res[bi].wire_mops) {
        vals.push_back(v);
        best = std::max(best, v);
      }
      vals.push_back(res[bi].repl_mops);
      vals.push_back(res[bi].inproc_mops);
      vals.push_back(res[bi].inproc_mops > 0 ? best / res[bi].inproc_mops
                                             : 0.0);
      bench::print_series_row(static_cast<int>(kBatchSizes[bi]), vals);
    }
  };
  std::printf("\n(rows are keys per frame; best/inproc is the convergence "
              "ratio; the\n replicated column inserts against a live-"
              "streaming primary and queries its replica)\n");
  print_phase("wire insert Mops/s", insert_res);
  print_phase("wire query Mops/s", query_res);

  auto emit_phase = [&](const char* phase, const phase_result* res) {
    for (size_t bi = 0; bi < std::size(kBatchSizes); ++bi) {
      double best = 0;
      for (size_t ci = 0; ci < std::size(kConnCounts); ++ci) {
        emit_json(backend, phase, kBatchSizes[bi], kConnCounts[ci],
                  "wire_mops", res[bi].wire_mops[ci]);
        best = std::max(best, res[bi].wire_mops[ci]);
      }
      emit_json(backend, phase, kBatchSizes[bi], 0, "replicated_mops",
                res[bi].repl_mops);
      emit_json(backend, phase, kBatchSizes[bi], 0, "inproc_mops",
                res[bi].inproc_mops);
      if (res[bi].inproc_mops > 0)
        emit_json(backend, phase, kBatchSizes[bi], 0, "convergence_ratio",
                  best / res[bi].inproc_mops);
    }
  };
  emit_phase("insert", insert_res);
  emit_phase("query", query_res);

  // Reactor sweep: the best-converged wire configuration (largest batch,
  // max connections) against 1..max_reactors event loops.  Shards = 8 so
  // four reactors own two shards each; the client count stays fixed so
  // the offered load is identical across rows — only the serving
  // parallelism varies.
  if (max_reactors > 1) {
    const size_t batch = kBatchSizes[std::size(kBatchSizes) - 1];
    const int conns = kConnCounts[std::size(kConnCounts) - 1];
    std::vector<uint32_t> rsweep{1};
    for (uint32_t r = 2; r <= max_reactors; r *= 2) rsweep.push_back(r);
    std::vector<std::string> rcols;
    for (uint32_t r : rsweep) rcols.push_back(std::to_string(r) + "-reactor");
    rcols.push_back("max/1");
    std::vector<double> rins(rsweep.size(), 0), rqry(rsweep.size(), 0);
    for (size_t ri = 0; ri < rsweep.size(); ++ri) {
      net::server_config scfg;
      scfg.reactors = rsweep[ri];
      net::server srv(std::move(scfg), make_store(backend, n, 8));
      std::thread loop([&] { srv.run(); });
      auto run_phase = [&](bool inserts) {
        std::vector<std::thread> workers;
        util::wall_timer timer;
        for (int c = 0; c < conns; ++c) {
          const size_t lo = keys.size() * static_cast<size_t>(c) /
                            static_cast<size_t>(conns);
          const size_t hi = keys.size() * static_cast<size_t>(c + 1) /
                            static_cast<size_t>(conns);
          workers.emplace_back([&, lo, hi] {
            net::client cli("127.0.0.1", srv.port());
            drive(cli, std::span<const uint64_t>(keys).subspan(lo, hi - lo),
                  batch, inserts);
          });
        }
        for (auto& w : workers) w.join();
        return util::mops(n, timer.seconds());
      };
      rins[ri] = run_phase(/*inserts=*/true);
      for (int rep = 0; rep < 3; ++rep)
        rqry[ri] = std::max(rqry[ri], run_phase(/*inserts=*/false));
      srv.request_stop();
      loop.join();
      emit_json(backend, "insert", batch, conns, "reactor_mops", rins[ri],
                rsweep[ri]);
      emit_json(backend, "query", batch, conns, "reactor_mops", rqry[ri],
                rsweep[ri]);
    }
    std::printf(
        "\nreactor sweep (batch=%zu, %d conns, 8 shards; last column is "
        "max-reactor / 1-reactor speedup):\n",
        batch, conns);
    bench::print_series_header("reactor Mops/s", rcols, "op");
    auto rrow = [&](const char* op, const std::vector<double>& v) {
      std::vector<double> vals(v);
      vals.push_back(v[0] > 0 ? v.back() / v[0] : 0.0);
      bench::print_series_row(op, vals);
    };
    rrow("insert", rins);
    rrow("query", rqry);
    std::printf(
        "(speedup > 1 expected only on multi-core hosts — single-core runs "
        "document handoff overhead)\n");
  }

  // Acceptance: pipelined 4 Ki-key batches must reach ≥ 50% of in-process
  // bulk throughput — the "wire carries the batch lesson" claim.
  const size_t last = std::size(kBatchSizes) - 1;
  double ins_best = 0, qry_best = 0;
  for (double v : insert_res[last].wire_mops) ins_best = std::max(ins_best, v);
  for (double v : query_res[last].wire_mops) qry_best = std::max(qry_best, v);
  double ins_ratio = insert_res[last].inproc_mops > 0
                         ? ins_best / insert_res[last].inproc_mops
                         : 0.0;
  double qry_ratio = query_res[last].inproc_mops > 0
                         ? qry_best / query_res[last].inproc_mops
                         : 0.0;
  std::printf("\nacceptance: batch=%zu insert wire/inproc %.2f, query "
              "wire/inproc %.2f (target >= 0.50) -> %s\n",
              kBatchSizes[last], ins_ratio, qry_ratio,
              ins_ratio >= 0.5 && qry_ratio >= 0.5 ? "converged"
                                                   : "below target");
  if (g_json) std::fclose(g_json);
  return 0;
}
