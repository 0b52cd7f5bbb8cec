// recovery_time: what a restart costs, O(store) vs O(delta).
//
// The durability engine's bet (src/persist/) is that checkpoint + WAL-tail
// replay turns restart time from a function of the *store size* into a
// function of the *delta since the last checkpoint*.  This bench measures
// the three restart shapes directly, against the same store contents:
//
//   snapshot_only     load_store() of a full snapshot — the PR-7 restart
//                     path, and the floor any recovery pays to get the
//                     store image back (pure O(store));
//   wal_full_replay   a WAL whose only checkpoint is the initial empty one,
//                     so recovery re-applies every frame ever logged
//                     through the store's apply path (pure O(history) —
//                     the shape a WAL-without-checkpoints would decay to);
//   checkpoint_tail   checkpoint covering all but the last 1% / 10% of
//                     frames, so recovery loads the checkpoint and replays
//                     only the tail (O(store) load + O(delta) replay — the
//                     shipped configuration).
//
// Expectations on any host: checkpoint_tail lands within a small factor of
// snapshot_only (the tail replay is cheap), while wal_full_replay grows
// with history and loses badly at scale — the gap between those two
// columns is the entire argument for the checkpointer.
//
// Flags (bench/harness.h): --full sweeps more keys; plus
//   --backend tcf|gqf|bbf|btcf   store backend (default tcf)
//   --json FILE                  write one JSON object per line per
//                                measurement (record below); CI uploads it
//
// JSON record:
//   bench         "recovery_time"
//   backend       tcf | gqf | blocked_bloom | bulk_tcf
//   scenario      snapshot_only | wal_full_replay | checkpoint_tail_10 |
//                 checkpoint_tail_1 (the 10 % / 1 % frame tails above)
//   keys          store size in keys at restart time
//   delta_frames  WAL frames this restart replayed (0 for snapshot_only)
//   metric        restart_ms | replayed_frames
//   value         4 decimal places (ms, or a frame count)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "net/codec.h"
#include "net/frame.h"
#include "persist/durability.h"
#include "persist/wal.h"
#include "store/store.h"
#include "store/store_io.h"
#include "util/json.h"
#include "util/timer.h"
#include "util/xorwow.h"

using namespace gf;

namespace {

constexpr size_t kFrameKeys = 1024;  ///< keys per logged insert frame

FILE* g_json = nullptr;

void emit_json(store::backend_kind backend, const char* scenario,
               uint64_t keys, uint64_t delta_frames, const char* metric,
               double value) {
  if (!g_json) return;
  util::json_writer w;
  w.object_begin()
      .field("bench", "recovery_time")
      .field("backend", store::backend_name(backend))
      .field("scenario", scenario)
      .field("keys", keys)
      .field("delta_frames", delta_frames)
      .field("metric", metric)
      .field("value", value, 4)
      .object_end();
  std::fprintf(g_json, "%s\n", w.str().c_str());
}

store::store_config config_for(store::backend_kind backend, uint64_t n) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = 4;
  cfg.capacity = n + n / 2;  // headroom: refusals would distort replay
  return cfg;
}

std::string scratch_dir(const char* tag) {
  std::string dir = std::string(std::filesystem::temp_directory_path()) +
                    "/gf_bench_rec_" + tag + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<uint8_t> insert_frame(uint64_t seq,
                                  std::span<const uint64_t> keys) {
  std::vector<uint8_t> payload;
  net::put_u64s(payload, keys);
  std::vector<uint8_t> out;
  net::encode_frame(net::opcode::insert, net::wire_status::ok,
                    net::kNoShardHint, static_cast<uint32_t>(keys.size()),
                    seq, payload, out);
  return out;
}

/// Build a WAL directory holding `frames` insert frames of the key set,
/// with a checkpoint taken after `checkpoint_at` of them (0 = only the
/// initial empty checkpoint).  Returns the final sequence.
uint64_t build_wal(const std::string& dir, store::backend_kind backend,
                   std::span<const uint64_t> keys, uint64_t frames,
                   uint64_t checkpoint_at) {
  persist::wal_config cfg;
  cfg.dir = dir;
  cfg.fsync = persist::fsync_policy::none;  // build time is not measured
  cfg.checkpoint_every_bytes = 0;
  persist::durability_engine eng(cfg);
  auto st = eng.recover([&] {
    return std::pair<store::filter_store, uint64_t>(
        store::filter_store(config_for(backend, keys.size())), 0);
  });
  for (uint64_t seq = 1; seq <= frames; ++seq) {
    auto slice = keys.subspan((seq - 1) * kFrameKeys, kFrameKeys);
    eng.append(seq, insert_frame(seq, slice));
    st.insert_bulk(slice);
    if (seq == checkpoint_at) eng.checkpoint(st);
  }
  return frames;
}

struct restart_cost {
  double ms = 0;
  uint64_t replayed = 0;
};

/// Time a cold restart of `dir`: fresh engine, recover(), done.
restart_cost time_restart(const std::string& dir,
                          store::backend_kind backend, uint64_t n) {
  persist::wal_config cfg;
  cfg.dir = dir;
  cfg.fsync = persist::fsync_policy::none;
  cfg.checkpoint_every_bytes = 0;
  util::wall_timer timer;
  persist::durability_engine eng(cfg);
  auto st = eng.recover([&] {
    return std::pair<store::filter_store, uint64_t>(
        store::filter_store(config_for(backend, n)), 0);
  });
  restart_cost cost;
  cost.ms = timer.seconds() * 1e3;
  cost.replayed = eng.stats().recovery_replayed_frames;
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::options::parse(argc, argv, {"--json", "--backend"});
  store::backend_kind backend = store::backend_kind::tcf;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--backend") && i + 1 < argc) {
      const char* b = argv[++i];
      if (!std::strcmp(b, "gqf")) backend = store::backend_kind::gqf;
      else if (!std::strcmp(b, "bbf"))
        backend = store::backend_kind::blocked_bloom;
      else if (!std::strcmp(b, "btcf"))
        backend = store::backend_kind::bulk_tcf;
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      g_json = std::fopen(argv[i + 1], "w");
      if (!g_json) {
        std::fprintf(stderr, "recovery_time: cannot open %s\n", argv[i + 1]);
        return 2;
      }
      ++i;
    }
  }

  bench::print_banner(
      "recovery_time: O(store) snapshot restart vs O(delta) WAL-tail restart",
      "durability engine (beyond the paper; src/persist/)");

  std::vector<int> log_sizes = opts.full ? std::vector<int>{18, 19, 20, 21}
                                         : std::vector<int>{18, 19};
  const std::vector<std::string> cols = {"snapshot-only", "full-replay",
                                         "ckpt+10%", "ckpt+1%"};
  std::printf("backend: %s, %zu keys/frame; rows are log2 keys, cells are "
              "restart ms\n",
              store::backend_name(backend), kFrameKeys);
  bench::print_series_header("restart ms", cols);

  for (int lg : log_sizes) {
    const uint64_t n = uint64_t{1} << lg;
    const uint64_t frames = n / kFrameKeys;
    auto keys = util::hashed_xorwow_items(n, 0x5ec0be5u + lg);
    std::vector<double> row;

    // snapshot_only: the store image round-tripped through store_io with
    // no log at all — the PR-7 restart path and the O(store) floor.
    {
      store::filter_store st(config_for(backend, n));
      for (uint64_t f = 0; f < frames; ++f)
        st.insert_bulk(
            std::span<const uint64_t>(keys).subspan(f * kFrameKeys,
                                                    kFrameKeys));
      const std::string path = scratch_dir("snap") + ".gfs";
      store::save_store(st, path, frames);
      util::wall_timer timer;
      auto loaded = store::load_store(path);
      const double ms = timer.seconds() * 1e3;
      row.push_back(ms);
      emit_json(backend, "snapshot_only", n, 0, "restart_ms", ms);
      std::filesystem::remove(path);
      (void)loaded;
    }

    // wal_full_replay: every frame re-applied through store.apply().
    {
      const std::string dir = scratch_dir("full");
      build_wal(dir, backend, keys, frames, /*checkpoint_at=*/0);
      auto cost = time_restart(dir, backend, n);
      row.push_back(cost.ms);
      emit_json(backend, "wal_full_replay", n, cost.replayed, "restart_ms",
                cost.ms);
      emit_json(backend, "wal_full_replay", n, cost.replayed,
                "replayed_frames", static_cast<double>(cost.replayed));
      std::filesystem::remove_all(dir);
    }

    // checkpoint_tail: the shipped shape, at two delta widths.
    for (int pct : {10, 1}) {
      const uint64_t tail = std::max<uint64_t>(1, frames * pct / 100);
      const std::string dir = scratch_dir("tail");
      build_wal(dir, backend, keys, frames,
                /*checkpoint_at=*/frames - tail);
      auto cost = time_restart(dir, backend, n);
      row.push_back(cost.ms);
      const std::string name = "checkpoint_tail_" + std::to_string(pct);
      emit_json(backend, name.c_str(), n, cost.replayed, "restart_ms",
                cost.ms);
      emit_json(backend, name.c_str(), n, cost.replayed, "replayed_frames",
                static_cast<double>(cost.replayed));
      std::filesystem::remove_all(dir);
    }

    bench::print_series_row(lg, row);
  }

  std::printf("\n(ckpt+N%% restarts load the checkpoint and replay an N%% "
              "frame tail; the\n full-replay column is what a WAL without "
              "checkpoints would decay to)\n");
  if (g_json) std::fclose(g_json);
  return 0;
}
