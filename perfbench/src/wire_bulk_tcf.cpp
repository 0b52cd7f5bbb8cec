// wire_bulk_tcf: the paper's batch-amortised path over the wire.
//
// Closed loop: 2 connections, each with 8 frames of 4096 keys in flight,
// against a 2-reactor, 8-shard TCF server whose store is sized past twice
// this host class's L3.  Phase 1 inserts every key once; phase 2 queries
// frames of half inserted, half never-inserted keys for 0.3 of the run's
// seconds (and at least 1000 frames).  main() runs three such passes per
// untraced run.
#include <atomic>
#include <thread>

#include "workloads.h"

namespace pb {

namespace {

constexpr size_t kFrameKeys = 4096;
constexpr size_t kHalf = kFrameKeys / 2;
constexpr unsigned kConns = 2;
constexpr unsigned kWindow = 8;
constexpr uint32_t kReactors = 2;
constexpr uint32_t kShards = 8;
/// 8192 frames × 4096 keys = 2^25 keys; provisioned for 3x that (load
/// 0.33) the TCF store is ~232 MiB, past twice a 105 MiB L3, and a pass
/// stays short enough for three per run.
constexpr uint64_t kInsertFrames = 8192;
constexpr uint64_t kMinQueryFrames = 1000;

}  // namespace

pass_result run_wire_bulk_tcf(const options& o, bool traced) {
  pass_result res;
  const uint64_t frames = o.smoke ? 64 : kInsertFrames;
  const uint64_t n = frames * kFrameKeys;
  res.store_cfg = {store::backend_kind::tcf, kShards, 3 * n};
  res.rec = std::make_unique<recording>(traced ? 256 : 0);
  for (unsigned c = 0; c <= kConns; ++c)
    res.tracers.push_back(std::make_unique<tracer>(traced, c));
  report& rep = res.rep;

  net::server_config scfg;
  scfg.reactors = kReactors;
  std::unique_ptr<live_server> srv;
  std::vector<std::unique_ptr<net::client>> clis;
  const double setup_s = median_setup(
      o.smoke ? 1 : 7,
      [&] {
        clis.clear();
        srv.reset();
      },
      [&] {
        srv = std::make_unique<live_server>(
            scfg, store::filter_store(res.store_cfg));
        srv->start();
        for (unsigned c = 0; c < kConns; ++c) {
          clis.push_back(
              std::make_unique<net::client>("127.0.0.1", srv->port()));
          clis.back()->ping();
        }
      });

  std::atomic<uint64_t> failed{0}, false_neg{0}, fp_hits{0};

  // Phase 1: insert every key once.
  std::vector<loop_stats> ins(kConns);
  auto insert_conn = [&](unsigned c) {
    std::vector<uint64_t> keys(kFrameKeys);
    auto fill = [&](uint64_t f) {
      for (size_t k = 0; k < kFrameKeys; ++k)
        keys[k] = key_at(o.seed, kStreamInserted, f * kFrameKeys + k);
    };
    closed_loop(
        *clis[c], kWindow,
        [&](uint64_t i, net::client& cli) -> uint64_t {
          const uint64_t f = i * kConns + c;
          if (f >= frames) return 0;
          fill(f);
          return cli.submit_insert(keys);
        },
        [&](uint64_t i, const net::frame& r) {
          if (!answered(r)) {
            failed += kFrameKeys;
            return;
          }
          failed += net::decode_pair_response(r).failed;
          if (res.rec->wants(net::opcode::insert)) {
            fill(i * kConns + c);
            res.rec->add({net::opcode::insert, keys, {}, r});
          }
        },
        ins[c], *res.tracers[c]);
  };
  const uint64_t t_ins = now_ns();  // phase 1 start
  {
    std::vector<std::thread> th;
    for (unsigned c = 0; c < kConns; ++c) th.emplace_back(insert_conn, c);
    for (auto& t : th) t.join();
  }
  const uint64_t t_ins_end = now_ns();
  const double insert_s = (t_ins_end - t_ins) * 1e-9;
  if (traced) res.scrapes.push_back(scrape_text("127.0.0.1", srv->port()));

  // Phase 2: query frames, half inserted keys and half never-inserted.
  const double query_budget = o.smoke ? 0.05 : 0.3 * o.seconds;
  const uint64_t min_frames = o.smoke ? 8 : kMinQueryFrames / kConns;
  std::vector<loop_stats> qry(kConns);
  const uint64_t t_q = now_ns();
  auto query_conn = [&](unsigned c) {
    std::vector<uint64_t> keys(kFrameKeys);
    auto fill = [&](uint64_t q) {
      for (size_t k = 0; k < kHalf; ++k) {
        keys[k] = key_at(o.seed, kStreamInserted, (q * kHalf + k) % n);
        keys[kHalf + k] = key_at(o.seed, kStreamAbsent, q * kHalf + k);
      }
    };
    closed_loop(
        *clis[c], kWindow,
        [&](uint64_t i, net::client& cli) -> uint64_t {
          if (i >= min_frames && seconds_since(t_q) >= query_budget) return 0;
          fill(i * kConns + c);
          return cli.submit_query(keys);
        },
        [&](uint64_t i, const net::frame& r) {
          if (!answered(r)) {
            failed += kFrameKeys;
            return;
          }
          const auto bits = net::decode_bitmap(r);
          uint64_t fn = 0, fp = 0;
          for (size_t k = 0; k < kHalf; ++k) {
            fn += net::bitmap_test(bits, k) ? 0 : 1;
            fp += net::bitmap_test(bits, kHalf + k) ? 1 : 0;
          }
          false_neg += fn;
          fp_hits += fp;
          if (res.rec->wants(net::opcode::query)) {
            fill(i * kConns + c);
            res.rec->add({net::opcode::query, keys, {}, r});
          }
        },
        qry[c], *res.tracers[c]);
  };
  {
    std::vector<std::thread> th;
    for (unsigned c = 0; c < kConns; ++c) th.emplace_back(query_conn, c);
    for (auto& t : th) t.join();
  }
  const uint64_t t_q_end = now_ns();
  const double query_s = (t_q_end - t_q) * 1e-9;
  if (traced) res.scrapes.push_back(scrape_text("127.0.0.1", srv->port()));
  clis.clear();
  srv->stop();

  // Aggregate.
  std::vector<double> ins_rtt, qry_rtt, all_rtt;
  std::vector<uint64_t> ins_done, qry_done;
  uint64_t qframes = 0, blocked = 0, wall = 0;
  for (unsigned c = 0; c < kConns; ++c) {
    ins_done.insert(ins_done.end(), ins[c].done_ns.begin(),
                    ins[c].done_ns.end());
    qry_done.insert(qry_done.end(), qry[c].done_ns.begin(),
                    qry[c].done_ns.end());
    ins_rtt.insert(ins_rtt.end(), ins[c].rtt_us.begin(), ins[c].rtt_us.end());
    qry_rtt.insert(qry_rtt.end(), qry[c].rtt_us.begin(), qry[c].rtt_us.end());
    qframes += qry[c].frames;
    for (const loop_stats* s : {&ins[c], &qry[c]}) {
      blocked += s->blocked_ns;
      wall += s->wall_ns;
      res.submit_ns.insert(res.submit_ns.end(), s->submit_ns.begin(),
                          s->submit_ns.end());
    }
  }
  all_rtt = ins_rtt;
  all_rtt.insert(all_rtt.end(), qry_rtt.begin(), qry_rtt.end());
  const uint64_t qkeys = qframes * kFrameKeys;
  const uint64_t absent = qframes * kHalf;
  const store::filter_store& st = srv->srv().store();
  const double bits_per_key =
      st.size() ? st.memory_bytes() * 8.0 / static_cast<double>(st.size())
                : 0.0;

  rep.attempted = n + qkeys;
  rep.failed = failed.load();
  rep.gate("no_false_negatives", false_neg.load(),
           "inserted keys answered absent by QUERY");

  // Latencies are the insert phase's: the query phase's two connections
  // are served unevenly, which makes their combined RTT bimodal.
  const phase_summary ins_sum =
      summarize(ins_done, ins_rtt,
                std::vector<double>(ins_done.size(), kFrameKeys), t_ins,
                t_ins_end);
  const phase_summary qry_sum =
      summarize(qry_done, {}, std::vector<double>(qry_done.size(), kFrameKeys),
                t_q, t_q_end);
  const double write = ins_sum.mkeys_s;
  const double read = qry_sum.mkeys_s;
  const double rtt_p50 = ins_sum.p50_us;
  rep.add_e2e("setup_s", setup_s, "s");
  rep.add_e2e("write_mkeys_s", write, "Mkeys/s");
  rep.add_e2e("read_mkeys_s", read, "Mkeys/s");
  rep.add_e2e("frame_rtt_p50_us", rtt_p50, "us");
  rep.add_detail("frame_rtt_p90_us", ins_sum.p90_us, "us");
  rep.add_e2e("false_positive_rate",
              absent ? static_cast<double>(fp_hits.load()) / absent : 0.0,
              "ratio");
  rep.add_e2e("bits_per_key", bits_per_key, "bits/key");

  rep.add_detail("insert_mkeys_s", write, "Mkeys/s");
  rep.add_detail("query_mkeys_s", read, "Mkeys/s");
  rep.add_detail("insert_mkeys_s_whole_phase", n / insert_s * 1e-6, "Mkeys/s");
  rep.add_detail("query_mkeys_s_whole_phase", qkeys / query_s * 1e-6,
                 "Mkeys/s");
  rep.add_detail("frame_rtt_p99_us", ins_sum.p99_us, "us");
  rep.add_detail("insert_windows_undisturbed",
                 static_cast<double>(ins_sum.windows_undisturbed),
                 "count");
  rep.add_detail("query_windows_undisturbed",
                 static_cast<double>(qry_sum.windows_undisturbed),
                 "count");
  rep.add_detail("query_frame_rtt_p50_us", percentile(qry_rtt, 0.5), "us");
  rep.add_detail("query_frames", static_cast<double>(qframes), "count");
  rep.add_detail("insert_frames", static_cast<double>(frames), "count");
  rep.add_detail("insert_frame_rtt_p99_us", percentile(ins_rtt, 0.99), "us");
  rep.add_detail("query_frame_rtt_p99_us", percentile(qry_rtt, 0.99), "us");
  rep.add_detail("insert_s", insert_s, "s");
  rep.add_detail("query_s", query_s, "s");
  rep.add_detail("error_rate",
                 static_cast<double>(rep.failed) / rep.attempted, "ratio");
  rep.add_detail("store_load_factor", st.load_factor(), "ratio");

  rep.config["backend"] = "tcf";
  rep.config["reactors"] = std::to_string(kReactors);
  rep.config["shards"] = std::to_string(kShards);
  rep.config["keys_inserted"] = std::to_string(n);
  rep.config["keys_queried"] = std::to_string(qkeys);
  rep.config["store_mib"] = std::to_string(st.memory_bytes() >> 20);
  rep.config["store_over_2x_l3"] =
      st.memory_bytes() > 2 * l3_bytes() ? "yes" : "no";
  rep.config["loop"] = "closed, 2 connections x 8 frames x 4096 keys";
  rep.config["rtt_samples"] = std::to_string(ins_rtt.size());

  res.wait_blocked_frac = wall ? static_cast<double>(blocked) / wall : 0.0;
  res.client_rtt_p50_us = percentile(all_rtt, 0.5);
  res.write_mkeys_s = write;
  res.frame_rtt_p50_us = rtt_p50;
  return res;
}

}  // namespace pb
