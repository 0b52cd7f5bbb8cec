// durable_ingest_btcf: the write-ahead log, checkpoints, replication
// fan-out and the mixed-op apply path, on the single-reactor server.
//
// Closed loop: one connection with 8 frames of 1024 keys in flight, 80 %
// INSERT and 20 % ERASE of keys acknowledged earlier (each ERASE frame
// takes the first 256 keys of the four INSERT frames two groups back).
// Primary: 1 reactor, 8 shards, bulk TCF, WAL at fsync=interval every
// 20 ms, a checkpoint every 8 MiB of log.  One in-process replica follows
// through sync_from + attach_feed.  After the stream the run waits for the
// replica to apply the primary's last frame, stops the primary without a
// final checkpoint, times durability_engine::recover on the directory it
// left, then reads every surviving key back from the replica over the wire
// in 8192-key frames (with as many never-inserted keys) and checks the
// recovered store too.  main() runs five such passes per untraced run.
#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "net/replication.h"
#include "persist/durability.h"
#include "workloads.h"

namespace pb {

namespace {

constexpr size_t kFrameKeys = 1024;
constexpr size_t kEraseSlice = kFrameKeys / 4;  ///< keys per source frame
constexpr unsigned kWindow = 8;
constexpr uint32_t kShards = 8;
/// 1000 groups of 4 INSERT + 1 ERASE frames: 4.1 M inserted keys.  The
/// bulk TCF's per-frame insert cost grows with its table, so a larger
/// stream outgrows the run's time.
constexpr uint64_t kGroups = 1000;
constexpr uint32_t kFsyncIntervalMs = 20;
constexpr size_t kCheckpointBytes = size_t{8} << 20;
/// Read-back frames: half surviving keys, half never-inserted.  Large, so
/// the replica's per-frame pool launch is a small share of a frame.
constexpr size_t kReadFrameKeys = 8192;

struct plan_frame {
  net::opcode op;
  uint64_t group;  ///< insert: its group; erase: the group it erases from
  uint32_t slot;   ///< insert: position 0..3 in its group
};

/// Frame order: group g holds INSERT frames (g, 0..3) then, from group 2
/// on, one ERASE frame over group g - 2 — whose frames were acknowledged
/// before the ERASE is sent, since at most 8 frames are in flight.
std::vector<plan_frame> make_plan(uint64_t groups) {
  std::vector<plan_frame> plan;
  for (uint64_t g = 0; g < groups; ++g) {
    for (uint32_t j = 0; j < 4; ++j)
      plan.push_back({net::opcode::insert, g, j});
    if (g >= 2) plan.push_back({net::opcode::erase, g - 2, 0});
  }
  return plan;
}

uint64_t inserted_index(uint64_t group, uint32_t slot, size_t k) {
  return (group * 4 + slot) * kFrameKeys + k;
}

/// Keys of one plan frame.
void fill(const options& o, const plan_frame& p, std::vector<uint64_t>& keys) {
  keys.resize(kFrameKeys);
  if (p.op == net::opcode::insert) {
    for (size_t k = 0; k < kFrameKeys; ++k)
      keys[k] = key_at(o.seed, kStreamInserted,
                       inserted_index(p.group, p.slot, k));
  } else {
    for (uint32_t j = 0; j < 4; ++j)
      for (size_t k = 0; k < kEraseSlice; ++k)
        keys[j * kEraseSlice + k] =
            key_at(o.seed, kStreamInserted, inserted_index(p.group, j, k));
  }
}

/// Samples the replication lag on its own thread until destroyed.
class lag_sampler {
 public:
  lag_sampler(const net::server& primary, const net::server& replica,
              uint64_t& max_lag)
      : primary_(primary), replica_(replica), max_(max_lag),
        thread_([this] { loop(); }) {}
  ~lag_sampler() {
    stop_ = true;
    thread_.join();
  }
  lag_sampler(const lag_sampler&) = delete;
  lag_sampler& operator=(const lag_sampler&) = delete;

 private:
  void loop() {
    while (!stop_.load()) {
      const uint64_t head = primary_.stats().repl_seq;
      const uint64_t applied = replica_.stats().feed_last_seq;
      max_ = std::max(max_, head - std::min(head, applied));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  const net::server& primary_;
  const net::server& replica_;
  uint64_t& max_;  ///< read by the owner only after destruction
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

persist::wal_config wal_at(const std::string& dir) {
  persist::wal_config cfg;
  cfg.dir = dir;
  cfg.fsync = persist::fsync_policy::interval;
  cfg.fsync_interval_ms = kFsyncIntervalMs;
  cfg.checkpoint_every_bytes = kCheckpointBytes;
  return cfg;
}

}  // namespace

/// The WAL settings of this workload; the other workloads' traced runs
/// replay their frames into a log with the same settings.
persist::wal_config durable_wal_config(const std::string& dir) {
  return wal_at(dir);
}

pass_result run_durable_ingest_btcf(const options& o, bool traced) {
  pass_result res;
  const uint64_t groups = o.smoke ? 12 : kGroups;
  const auto plan = make_plan(groups);
  const uint64_t inserted = groups * 4 * kFrameKeys;
  const uint64_t erased = (groups >= 2 ? groups - 2 : 0) * 4 * kEraseSlice;
  const uint64_t live = inserted - erased;
  res.store_cfg = {store::backend_kind::bulk_tcf, kShards, live + live / 2};
  res.durable = true;
  res.rec = std::make_unique<recording>(traced ? 256 : 0);
  res.tracers.push_back(std::make_unique<tracer>(traced, 0));
  tracer& tr = *res.tracers[0];
  report& rep = res.rep;

  auto fresh = [&] {
    return std::pair<store::filter_store, uint64_t>(
        store::filter_store(res.store_cfg), 0);
  };

  // Set-up: WAL init, primary, replica sync + feed, client connection.
  std::string dir;
  std::unique_ptr<persist::durability_engine> eng;
  std::unique_ptr<live_server> primary, replica;
  std::unique_ptr<net::client> cli;
  const double setup_s = median_setup(
      o.smoke ? 1 : 7,
      [&] {
        cli.reset();
        replica.reset();
        primary.reset();
        eng.reset();
        if (!dir.empty()) std::filesystem::remove_all(dir);
        dir = scratch_dir("wal");
      },
      [&] {
        eng = std::make_unique<persist::durability_engine>(wal_at(dir));
        auto st = eng->recover(fresh);
        net::server_config pcfg;
        pcfg.durability = eng.get();
        primary = std::make_unique<live_server>(pcfg, std::move(st));
        primary->start();
        auto sr = net::sync_from("127.0.0.1", primary->port());
        net::server_config rcfg;
        rcfg.read_only = true;
        replica = std::make_unique<live_server>(rcfg, std::move(sr.store));
        replica->srv().attach_feed(std::move(sr.feed), std::move(sr.dec),
                                   sr.lane_seqs);
        replica->start();
        cli = std::make_unique<net::client>("127.0.0.1", primary->port());
        cli->ping();
      });

  // Replication lag (primary position − replica's applied position),
  // sampled while the stream runs and until the replica caught up.
  uint64_t lag_max = 0;
  std::unique_ptr<lag_sampler> lag =
      std::make_unique<lag_sampler>(primary->srv(), replica->srv(), lag_max);

  // The mutation stream.
  uint64_t failed = 0;
  loop_stats ls;
  std::vector<uint64_t> keys;
  const uint64_t t_stream = now_ns();
  closed_loop(
      *cli, kWindow,
      [&](uint64_t i, net::client& c) -> uint64_t {
        if (i >= plan.size()) return 0;
        fill(o, plan[i], keys);
        return plan[i].op == net::opcode::insert ? c.submit_insert(keys)
                                                 : c.submit_erase(keys);
      },
      [&](uint64_t i, const net::frame& r) {
        if (!answered(r)) {
          failed += kFrameKeys;
          return;
        }
        // Erase misses are fingerprint aliasing, not failures: an erased
        // key's fingerprint may already have been taken by another erase.
        if (plan[i].op == net::opcode::insert)
          failed += net::decode_pair_response(r).failed;
        if (res.rec->wants(plan[i].op)) {
          std::vector<uint64_t> k;
          fill(o, plan[i], k);
          res.rec->add({plan[i].op, std::move(k), {}, r});
        }
      },
      ls, tr);
  const uint64_t t_stream_end = now_ns();
  if (traced) res.scrapes.push_back(cli->metrics_text());

  // Replica catch-up: the primary's last stream sequence applied there.
  const uint64_t last = primary->srv().stats().repl_seq;
  const uint64_t t_wait = now_ns();
  while (replica->srv().stats().feed_last_seq < last) {
    if (seconds_since(t_wait) > 60)
      throw std::runtime_error("replica did not catch up within 60 s");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double replicated_s = seconds_since(t_stream);
  lag.reset();

  const auto pstats = primary->srv().stats();
  cli.reset();
  primary->stop();  // no final checkpoint: recovery replays the tail
  const auto dstats = eng->stats();
  eng.reset();

  // Restart: recover() on the directory the primary left.
  const uint64_t t_rec = now_ns();
  persist::durability_engine reng(wal_at(dir));
  store::filter_store recovered = reng.recover(fresh);
  const double restart_s = seconds_since(t_rec);
  const auto rstats = reng.stats();

  // Read every surviving key back from the replica, with as many
  // never-inserted keys, over the wire.
  const store::filter_store& pst = primary->srv().store();
  auto surviving = [&](uint64_t j) {
    // Enumerate inserted keys, skipping those the plan erased.
    const uint64_t frame = j / kFrameKeys, k = j % kFrameKeys;
    const uint64_t g = frame / 4;
    return !(k < kEraseSlice && g + 2 < groups);
  };
  std::vector<uint64_t> alive;
  alive.reserve(live);
  for (uint64_t j = 0; j < inserted; ++j)
    if (surviving(j)) alive.push_back(key_at(o.seed, kStreamInserted, j));

  uint64_t replica_missing = 0, recovered_missing = 0, aliased = 0;
  uint64_t fp_hits = 0, absent_q = 0;
  const size_t half = kReadFrameKeys / 2;
  // Every surviving key is read at least once, and the passes repeat until
  // 0.15 of the run's seconds have passed, so the rate has time to settle.
  const uint64_t pass_frames = (alive.size() + half - 1) / half;
  const double read_budget = o.smoke ? 0 : 0.15 * o.seconds;
  loop_stats rs;
  std::vector<double> read_keys;  ///< keys per read frame, in order
  uint64_t read_attempted = 0;
  net::client rcli("127.0.0.1", replica->port());
  std::vector<uint64_t> rkeys;
  auto fill_read = [&](uint64_t f) {
    const uint64_t fa = f % pass_frames;  // absent keys stay fresh per pass
    rkeys.clear();
    for (uint64_t j = fa * half;
         j < std::min<uint64_t>(alive.size(), (fa + 1) * half); ++j)
      rkeys.push_back(alive[j]);
    const size_t n_alive = rkeys.size();
    for (size_t k = 0; k < n_alive; ++k)
      rkeys.push_back(key_at(o.seed, kStreamAbsent, f * half + k));
    return n_alive;
  };
  tracer untraced(false);
  const uint64_t t_read = now_ns();
  closed_loop(
      rcli, kWindow,
      [&](uint64_t f, net::client& c) -> uint64_t {
        if (f >= pass_frames && seconds_since(t_read) >= read_budget)
          return 0;
        fill_read(f);
        return c.submit_query(rkeys);
      },
      [&](uint64_t f, const net::frame& r) {
        const size_t n_alive = fill_read(f);
        read_keys.push_back(2.0 * n_alive);
        read_attempted += 2 * n_alive;
        if (!answered(r)) {
          failed += 2 * n_alive;
          return;
        }
        const auto bits = net::decode_bitmap(r);
        for (size_t k = 0; k < n_alive; ++k) {
          if (!net::bitmap_test(bits, k)) {
            // A key the primary itself no longer answers was lost to erase
            // aliasing inside the filter, not by replication.
            if (pst.contains(rkeys[k])) ++replica_missing;
            else if (f < pass_frames) ++aliased;
          }
          fp_hits += net::bitmap_test(bits, n_alive + k) ? 1 : 0;
        }
        absent_q += n_alive;
      },
      rs, untraced);
  const uint64_t t_read_end = now_ns();
  const double read_s = (t_read_end - t_read) * 1e-9;
  for (uint64_t k : alive)
    if (!recovered.contains(k) && pst.contains(k)) ++recovered_missing;
  replica->stop();

  rep.attempted = plan.size() * kFrameKeys + read_attempted;
  rep.failed = failed;
  rep.gate("replica_has_acked_keys", replica_missing,
           "acknowledged surviving keys missing from the replica");
  rep.gate("recovered_has_acked_keys", recovered_missing,
           "acknowledged surviving keys missing after recover()");

  const double mutated = static_cast<double>(plan.size() * kFrameKeys);
  const phase_summary mut =
      summarize(ls.done_ns, ls.rtt_us,
                std::vector<double>(ls.done_ns.size(), kFrameKeys), t_stream,
                t_stream_end);
  const phase_summary rd =
      summarize(rs.done_ns, {}, read_keys, t_read, t_read_end);
  const double write = mut.mkeys_s;
  const double read = rd.mkeys_s;
  const double rtt_p50 = mut.p50_us;
  rep.add_e2e("setup_s", setup_s, "s");
  rep.add_e2e("write_mkeys_s", write, "Mkeys/s");
  rep.add_e2e("read_mkeys_s", read, "Mkeys/s");
  rep.add_e2e("frame_rtt_p50_us", rtt_p50, "us");
  rep.add_detail("frame_rtt_p90_us", mut.p90_us, "us");
  rep.add_e2e("false_positive_rate",
              absent_q ? static_cast<double>(fp_hits) / absent_q : 0.0,
              "ratio");
  rep.add_e2e("bits_per_key",
              pst.size() ? pst.memory_bytes() * 8.0 / pst.size() : 0.0,
              "bits/key");

  rep.add_detail("mutate_mkeys_s", write, "Mkeys/s");
  rep.add_detail("replicated_mkeys_s", mutated / replicated_s * 1e-6,
                 "Mkeys/s");
  rep.add_detail("restart_s", restart_s, "s");
  rep.add_detail("frame_rtt_p99_us_whole_stream", percentile(ls.rtt_us, 0.99),
                 "us");
  rep.add_detail("replica_query_mkeys_s", read, "Mkeys/s");
  rep.add_detail("replica_query_mkeys_s_whole_phase",
                 2.0 * absent_q / read_s * 1e-6, "Mkeys/s");
  rep.add_detail("mutate_mkeys_s_whole_stream",
                 mutated / ((t_stream_end - t_stream) * 1e-9) * 1e-6,
                 "Mkeys/s");
  rep.add_detail("frame_rtt_p99_us", mut.p99_us, "us");
  rep.add_detail("stream_windows_undisturbed",
                 static_cast<double>(mut.windows_undisturbed),
                 "count");
  rep.add_detail("read_windows_undisturbed",
                 static_cast<double>(rd.windows_undisturbed),
                 "count");
  rep.add_detail("error_rate",
                 static_cast<double>(failed) / rep.attempted, "ratio");
  rep.add_detail("keys_lost_to_erase_aliasing", static_cast<double>(aliased),
                 "count");
  rep.add_detail("stream_frames", static_cast<double>(plan.size()), "count");
  rep.add_detail("checkpoints", static_cast<double>(dstats.checkpoints),
                 "count");
  rep.add_detail("replayed_frames_on_restart",
                 static_cast<double>(rstats.recovery_replayed_frames), "count");

  rep.config["backend"] = "btcf";
  rep.config["reactors"] = "1";
  rep.config["shards"] = std::to_string(kShards);
  rep.config["keys_inserted"] = std::to_string(inserted);
  rep.config["keys_erased"] = std::to_string(erased);
  rep.config["store_mib"] = std::to_string(pst.memory_bytes() >> 20);
  rep.config["wal"] = "fsync=interval 20 ms, checkpoint every 8 MiB";
  rep.config["loop"] = "closed, 1 connection x 8 frames x 1024 keys";
  rep.config["rtt_samples"] = std::to_string(ls.rtt_us.size());

  res.wait_blocked_frac =
      ls.wall_ns ? static_cast<double>(ls.blocked_ns) / ls.wall_ns : 0.0;
  res.submit_ns = ls.submit_ns;
  res.client_rtt_p50_us = rtt_p50;
  res.write_mkeys_s = write;
  res.frame_rtt_p50_us = rtt_p50;
  const double client_frames = static_cast<double>(plan.size());
  res.run_layer = {
      {"persist.fsyncs", static_cast<double>(dstats.wal_fsyncs), "count"},
      {"persist.checkpoints", static_cast<double>(dstats.checkpoints),
       "count"},
      {"persist.replayed_frames_on_restart",
       static_cast<double>(rstats.recovery_replayed_frames), "count"},
      {"persist.wal_bytes_per_key",
       static_cast<double>(dstats.wal_bytes) / mutated, "B/key"},
      {"net.repl.frames_forwarded_per_frame",
       static_cast<double>(pstats.frames_forwarded) / client_frames, "ratio"},
      {"net.repl.lag_frames_max", static_cast<double>(lag_max), "count"},
  };
  std::filesystem::remove_all(dir);
  return res;
}

}  // namespace pb
