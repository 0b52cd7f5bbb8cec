// Per-layer measurements of a traced run.
//
// Every number here comes from the benchmark's own files: spans around
// calls into each layer's public functions, replaying the frames the
// traced pass recorded (the first frames of each opcode, so a fresh twin
// store sees them in the state the server did), plus the histograms the
// server exposes through its metrics text.  Nothing is instrumented inside
// src/.
#include <filesystem>
#include <thread>

#include "gpu/thread_pool.h"
#include "persist/durability.h"
#include "store/any_filter.h"
#include "workloads.h"

namespace pb {

namespace {

/// Run `fn` until at least `min_ns` has passed (once in smoke mode) and
/// return the mean nanoseconds per call.
template <class Fn>
double time_per_call(bool smoke, uint64_t min_ns, Fn&& fn) {
  uint64_t calls = 0;
  const uint64_t t0 = now_ns();
  do {
    fn();
    ++calls;
  } while (!smoke && now_ns() - t0 < min_ns);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
}

std::vector<uint8_t> encode_request(const recorded_frame& f, uint64_t seq) {
  if (f.op == net::opcode::insert_counted)
    return net::encode_insert_counted_request(seq, f.keys, f.counts);
  return net::encode_keys_request(f.op, seq, f.keys);
}

std::vector<uint8_t> encode_response(const recorded_frame& f) {
  const net::frame& r = f.response;
  switch (f.op) {
    case net::opcode::query:
      return net::encode_query_response(r.sequence, r.key_count,
                                        net::decode_bitmap(r));
    case net::opcode::count:
      return net::encode_count_response(r.sequence, net::decode_counts(r));
    default: {
      const auto p = net::decode_pair_response(r);
      return net::encode_pair_response(f.op, r.sequence, r.key_count, p.ok,
                                       p.failed);
    }
  }
}

bool is_write(net::opcode op) {
  return op == net::opcode::insert || op == net::opcode::insert_counted;
}

/// Replay the recorded frames through the codec.
void measure_codec(const options& o, const std::vector<recorded_frame>& frames,
                   tracer& tr, report& out) {
  std::vector<std::vector<uint8_t>> req, resp;
  double keys = 0, bytes_in = 0, bytes_out = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    req.push_back(encode_request(frames[i], i + 1));
    resp.push_back(net::encode_frame(frames[i].response));
    keys += static_cast<double>(frames[i].keys.size());
    bytes_in += static_cast<double>(req.back().size());
    bytes_out += static_cast<double>(resp.back().size());
  }
  const uint64_t min_ns = 50'000'000;
  uint64_t sink = 0;
  auto stage = [&](const char* name, auto&& body) {
    const int64_t s = tr.begin(name);
    const double ns = time_per_call(o.smoke, min_ns, body);
    tr.end(s);
    return keys > 0 ? ns / keys : 0.0;
  };
  const double enc_req = stage("net.codec.encode_request", [&] {
    for (size_t i = 0; i < frames.size(); ++i)
      sink += encode_request(frames[i], i + 1).size();
  });
  const double dec_req = stage("net.codec.decode_request", [&] {
    net::frame f;
    std::vector<uint64_t> k, c;
    for (const auto& bytes : req) {
      net::frame_decoder dec;
      dec.feed(bytes.data(), bytes.size());
      if (dec.next(f) != net::decode_status::ok)
        throw std::runtime_error("codec replay: request did not decode");
      if (f.op == net::opcode::insert_counted) {
        net::decode_pairs(f, k, c);
        sink += k.size();
      } else {
        sink += net::decode_keys(f).size();
      }
    }
  });
  const double enc_resp = stage("net.codec.encode_response", [&] {
    for (const auto& f : frames) sink += encode_response(f).size();
  });
  const double dec_resp = stage("net.codec.decode_response", [&] {
    net::frame f;
    for (size_t i = 0; i < resp.size(); ++i) {
      net::frame_decoder dec;
      dec.feed(resp[i].data(), resp[i].size());
      if (dec.next(f) != net::decode_status::ok)
        throw std::runtime_error("codec replay: response did not decode");
      if (f.op == net::opcode::query) sink += net::decode_bitmap(f).size();
      else if (f.op == net::opcode::count) sink += net::decode_counts(f).size();
      else sink += net::decode_pair_response(f).ok;
    }
  });
  out.add_detail("codec_replay_sink", static_cast<double>(sink & 1), "bit");
  out.add_layer("net.codec.encode_request_ns_per_key", enc_req, "ns/key");
  out.add_layer("net.codec.decode_request_ns_per_key", dec_req, "ns/key");
  out.add_layer("net.codec.encode_response_ns_per_key", enc_resp, "ns/key");
  out.add_layer("net.codec.decode_response_ns_per_key", dec_resp, "ns/key");
  out.add_layer("net.codec.bytes_per_key_in", keys ? bytes_in / keys : 0,
                "B/key");
  out.add_layer("net.codec.bytes_per_key_out", keys ? bytes_out / keys : 0,
                "B/key");
}

/// The server's own histograms, scraped at each phase end.
void measure_server(const pass_result& res, report& out) {
  const scrape last(res.scrapes.empty() ? "" : res.scrapes.back());
  for (const char* st : {"decode", "apply", "encode", "flush"}) {
    const std::string lbl = std::string("stage=\"") + st + "\"";
    const std::string n = std::string("net.server.") + st;
    out.add_layer(n + "_p50_ns",
                  last.hist_percentile("gf_wire_stage_ns", lbl, 0.5), "ns");
    out.add_layer(n + "_p99_ns",
                  last.hist_percentile("gf_wire_stage_ns", lbl, 0.99), "ns");
  }
  for (const char* op :
       {"insert", "insert_counted", "query", "erase", "count"})
    out.add_layer(std::string("net.server.wire_latency_p99_ns.") + op,
                  last.hist_percentile("gf_wire_latency_ns",
                                       std::string("op=\"") + op + "\"", 0.99),
                  "ns");
  const double frames = last.sum("gf_server_frames_total");
  out.add_layer("net.server.handoffs_per_frame",
                frames ? last.sum("gf_reactor_handoffs_total") / frames : 0,
                "ratio");
  double depth = 0;
  for (const auto& text : res.scrapes)
    depth = std::max(depth, scrape(text).sum("gf_reactor_mailbox_depth"));
  out.add_layer("net.server.mailbox_depth_max", depth, "count");
  const double server_p50 = last.hist_percentile("gf_wire_latency_ns", "", 0.5);
  const double client_p50 = res.client_rtt_p50_us * 1e3;
  out.add_layer("net.server.socket_share",
                client_p50 > 0 ? 1.0 - server_p50 / client_p50 : 0, "frac");
}

struct batches {
  std::vector<std::vector<uint64_t>> write;   ///< insert / insert_counted keys
  std::vector<std::vector<uint64_t>> counts;  ///< parallel to write (or 1s)
  std::vector<std::vector<uint64_t>> read;    ///< query / count keys
  std::vector<std::vector<uint64_t>> erase;
  double write_keys = 0, read_keys = 0;
};

batches split(const std::vector<recorded_frame>& frames) {
  batches b;
  for (const auto& f : frames) {
    if (is_write(f.op)) {
      b.write.push_back(f.keys);
      b.counts.push_back(f.counts.empty()
                             ? std::vector<uint64_t>(f.keys.size(), 1)
                             : f.counts);
      b.write_keys += static_cast<double>(f.keys.size());
    } else if (f.op == net::opcode::erase) {
      b.erase.push_back(f.keys);
    } else {
      b.read.push_back(f.keys);
      b.read_keys += static_cast<double>(f.keys.size());
    }
  }
  if (b.read.empty()) {  // read costs measured on the written keys
    b.read = b.write;
    b.read_keys = b.write_keys;
  }
  return b;
}

std::vector<store::op> as_ops(const std::vector<recorded_frame>& frames) {
  std::vector<store::op> ops;
  for (const auto& f : frames)
    for (size_t i = 0; i < f.keys.size(); ++i) {
      if (is_write(f.op))
        ops.push_back(store::make_insert(
            f.keys[i], f.counts.empty() ? 1 : f.counts[i]));
      else if (f.op == net::opcode::erase)
        ops.push_back(store::make_erase(f.keys[i]));
      else
        ops.push_back(store::make_query(f.keys[i]));
    }
  return ops;
}

/// Twin stores fed the same batches in-process; returns the serial store
/// cost per inserted key (partition + shard insert), the kernel_share base.
double measure_store(const pass_result& res, const batches& b, tracer& tr,
                     report& out) {
  uint64_t sink = 0;
  double bulk_ns = 0, contains_ns = 0, cc_ns = 0;
  {
    store::filter_store twin(res.store_cfg);
    for (const auto& k : b.write) {
      scoped_span s(tr, "store.insert_bulk");
      const uint64_t t0 = now_ns();
      sink += twin.insert_bulk(k);
      bulk_ns += static_cast<double>(now_ns() - t0);
    }
    for (const auto& k : b.read) {
      scoped_span s(tr, "store.contains");
      const uint64_t t0 = now_ns();
      for (uint64_t key : k) sink += twin.contains(key) ? 1 : 0;
      contains_ns += static_cast<double>(now_ns() - t0);
    }
    for (const auto& k : b.read) {
      scoped_span s(tr, "store.count_contained");
      const uint64_t t0 = now_ns();
      sink += twin.count_contained(k);
      cc_ns += static_cast<double>(now_ns() - t0);
    }
  }
  double serial_ns = 0, shard_ns = 0;
  {
    store::filter_store twin(res.store_cfg);
    const uint32_t shards = twin.num_shards();
    std::vector<std::vector<uint64_t>> parts(shards);
    for (const auto& k : b.write) {
      const int64_t parent = tr.begin("store.partition_insert");
      const uint64_t t0 = now_ns();
      for (auto& p : parts) p.clear();
      for (uint64_t key : k) parts[twin.shard_of(key)].push_back(key);
      for (uint32_t s = 0; s < shards; ++s) {
        const int64_t child = tr.begin("store.shard.insert_span", parent);
        const uint64_t c0 = now_ns();
        sink += twin.shard_at(s).insert_span(parts[s]);
        shard_ns += static_cast<double>(now_ns() - c0);
        tr.end(child);
      }
      serial_ns += static_cast<double>(now_ns() - t0);
      tr.end(parent);
    }
  }
  double apply_ns = 0;
  const auto ops = as_ops(res.rec->frames());
  {
    store::filter_store twin(res.store_cfg);
    scoped_span s(tr, "store.apply");
    const uint64_t t0 = now_ns();
    const auto r = twin.apply(ops);
    apply_ns = static_cast<double>(now_ns() - t0);
    sink += r.total_ops();
  }
  out.add_detail("store_replay_sink", static_cast<double>(sink & 1), "bit");
  const double wk = std::max(1.0, b.write_keys);
  const double rk = std::max(1.0, b.read_keys);
  out.add_layer("store.insert_bulk_ns_per_key", bulk_ns / wk, "ns/key");
  out.add_layer("store.shard_insert_span_ns_per_key", shard_ns / wk, "ns/key");
  out.add_layer("store.partition_share",
                serial_ns > 0 ? 1.0 - shard_ns / serial_ns : 0, "frac");
  out.add_layer("store.contains_ns_per_key", contains_ns / rk, "ns/key");
  out.add_layer("store.count_contained_ns_per_key", cc_ns / rk, "ns/key");
  out.add_layer("store.apply_ns_per_op",
                ops.empty() ? 0 : apply_ns / static_cast<double>(ops.size()),
                "ns/op");
  const scrape last(res.scrapes.empty() ? "" : res.scrapes.back());
  out.add_layer("store.bulk_shard_p99_ns.insert",
                last.hist_percentile("gf_store_bulk_shard_ns",
                                     "path=\"insert\"", 0.99),
                "ns");
  out.add_layer("store.bulk_shard_p99_ns.apply",
                last.hist_percentile("gf_store_bulk_shard_ns",
                                     "path=\"apply\"", 0.99),
                "ns");
  out.add_layer("store.cascade_max_depth",
                last.max("gf_store_cascade_max_depth"), "count");
  out.add_layer("store.load_factor", last.max("gf_store_load_factor"),
                "ratio");
  out.add_layer("store.overflow_answered",
                last.sum("gf_store_overflow_answered_total"), "count");
  return serial_ns / wk;
}

/// The workload's backend as a standalone filter over shard 0's slices.
void measure_filter(const pass_result& res, const batches& b,
                    double store_serial_ns_per_key, tracer& tr,
                    report& out) {
  const store::store_config& sc = res.store_cfg;
  const store::filter_store router(
      {sc.backend, sc.num_shards, uint64_t{64} * sc.num_shards});
  auto slice = [&](const std::vector<std::vector<uint64_t>>& in,
                   const std::vector<std::vector<uint64_t>>* counts,
                   std::vector<std::vector<uint64_t>>* counts_out) {
    std::vector<std::vector<uint64_t>> out_keys;
    for (size_t i = 0; i < in.size(); ++i) {
      out_keys.emplace_back();
      if (counts_out) counts_out->emplace_back();
      for (size_t j = 0; j < in[i].size(); ++j)
        if (router.shard_of(in[i][j]) == 0) {
          out_keys.back().push_back(in[i][j]);
          if (counts_out) counts_out->back().push_back((*counts)[i][j]);
        }
    }
    return out_keys;
  };
  std::vector<std::vector<uint64_t>> wcounts;
  const auto w = slice(b.write, &b.counts, &wcounts);
  const auto r = slice(b.read, nullptr, nullptr);
  const auto e = slice(b.erase.empty() ? b.write : b.erase, nullptr, nullptr);
  double wk = 0, rk = 0, ek = 0;
  for (const auto& v : w) wk += static_cast<double>(v.size());
  for (const auto& v : r) rk += static_cast<double>(v.size());
  for (const auto& v : e) ek += static_cast<double>(v.size());
  wk = std::max(wk, 1.0);
  rk = std::max(rk, 1.0);
  ek = std::max(ek, 1.0);

  const uint64_t per_shard = store::filter_store::shard_capacity(sc);
  uint64_t sink = 0;
  auto timed = [&](const char* name, auto&& body) {
    scoped_span s(tr, name);
    const uint64_t t0 = now_ns();
    body();
    return static_cast<double>(now_ns() - t0);
  };
  auto f = store::make_filter(sc.backend, per_shard);
  const double ins = timed("filter.insert_bulk", [&] {
    for (const auto& v : w) sink += f->insert_bulk(v);
  });
  const double con = timed("filter.contains", [&] {
    for (const auto& v : r)
      for (uint64_t k : v) sink += f->contains(k) ? 1 : 0;
  });
  const double conb = timed("filter.contains_bulk", [&] {
    for (const auto& v : r) sink += f->contains_bulk(v);
  });
  const double cnt = timed("filter.count", [&] {
    for (const auto& v : r)
      for (uint64_t k : v) sink += f->count(k);
  });
  const double era = timed("filter.erase_bulk", [&] {
    for (const auto& v : e) sink += f->erase_bulk(v);
  });
  auto fc = store::make_filter(sc.backend, per_shard);
  const double insc = timed("filter.insert_counted", [&] {
    for (size_t i = 0; i < w.size(); ++i)
      sink += fc->insert_counted(w[i], wcounts[i]);
  });
  out.add_detail("filter_replay_sink", static_cast<double>(sink & 1), "bit");
  out.add_layer("filter.insert_bulk_ns_per_key", ins / wk, "ns/key");
  out.add_layer("filter.contains_ns_per_key", con / rk, "ns/key");
  out.add_layer("filter.contains_bulk_ns_per_key", conb / rk, "ns/key");
  out.add_layer("filter.insert_counted_ns_per_key", insc / wk, "ns/key");
  out.add_layer("filter.count_ns_per_key", cnt / rk, "ns/key");
  out.add_layer("filter.erase_bulk_ns_per_key", era / ek, "ns/key");
  out.add_layer("filter.kernel_share",
                store_serial_ns_per_key > 0
                    ? (ins / wk) / store_serial_ns_per_key
                    : 0,
                "frac");
}

/// Pool launch cost, and what two concurrent bulk callers do to it.
void measure_pool(const options& o, const pass_result& res, const batches& b,
                  tracer& tr, report& out) {
  auto& pool = gf::gpu::thread_pool::instance();
  std::vector<double> launches;
  for (int i = 0; i < (o.smoke ? 10 : 2000); ++i) {
    const uint64_t t0 = now_ns();
    pool.run_on_all([](unsigned) {});
    launches.push_back(static_cast<double>(now_ns() - t0));
  }
  out.add_layer("gpu.pool.launch_ns", median(launches), "ns");

  auto fill_store = [&](store::filter_store& st) {
    const uint64_t t0 = now_ns();
    for (const auto& k : b.write) st.insert_bulk(k);
    return static_cast<double>(now_ns() - t0);
  };
  double solo = 0;
  {
    scoped_span s(tr, "gpu.pool.solo_insert_bulk");
    store::filter_store st(res.store_cfg);
    solo = fill_store(st);
  }
  double both[2] = {0, 0};
  {
    scoped_span s(tr, "gpu.pool.concurrent_insert_bulk");
    store::filter_store a(res.store_cfg), c(res.store_cfg);
    std::thread t1([&] { both[0] = fill_store(a); });
    std::thread t2([&] { both[1] = fill_store(c); });
    t1.join();
    t2.join();
  }
  out.add_layer("gpu.pool.concurrent_launch_slowdown",
                solo > 0 ? (both[0] + both[1]) / 2 / solo : 0, "ratio");
}

/// WAL appends of the recorded frames with the durable workload's settings.
void measure_persist(const pass_result& res, tracer& tr, report& out) {
  const auto& frames = res.rec->frames();
  const std::string dir = scratch_dir("wal-replay");
  const persist::wal_config cfg = durable_wal_config(dir);
  const store::store_config small{res.store_cfg.backend,
                                  res.store_cfg.num_shards, 4096};
  auto fresh = [&] {
    return std::pair<store::filter_store, uint64_t>(store::filter_store(small),
                                                    0);
  };
  std::vector<std::vector<uint8_t>> bytes;
  double keys = 0, total_bytes = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (!is_write(frames[i].op) && frames[i].op != net::opcode::erase) continue;
    bytes.push_back(encode_request(frames[i], bytes.size() + 1));
    keys += static_cast<double>(frames[i].keys.size());
    total_bytes += static_cast<double>(bytes.back().size());
  }
  double append_ns = 0;
  persist::durability_stats ds;
  double fsync_p99 = 0, checkpoint_p99 = 0;
  {
    persist::durability_engine eng(cfg);
    auto st = eng.recover(fresh);
    for (size_t i = 0; i < bytes.size(); ++i) {
      scoped_span s(tr, "persist.append", -1, i + 1);
      const uint64_t t0 = now_ns();
      eng.append(i + 1, bytes[i]);
      append_ns += static_cast<double>(now_ns() - t0);
      if (eng.checkpoint_due()) eng.checkpoint(st);
    }
    eng.sync();
    ds = eng.stats();
    fsync_p99 =
        static_cast<double>(eng.fsync_hist()->snapshot().percentile(0.99));
    checkpoint_p99 = static_cast<double>(
        eng.checkpoint_hist()->snapshot().percentile(0.99));
  }
  uint64_t replayed = 0;
  {
    scoped_span s(tr, "persist.recover");
    persist::durability_engine eng(cfg);
    auto st = eng.recover(fresh);
    replayed = eng.stats().recovery_replayed_frames;
  }
  std::filesystem::remove_all(dir);

  const double n = std::max<double>(1.0, static_cast<double>(bytes.size()));
  out.add_layer("persist.append_ns_per_frame", append_ns / n, "ns/frame");
  out.add_layer("persist.append_mb_s",
                append_ns > 0 ? total_bytes / append_ns * 1e3 : 0, "MB/s");

  // The durable workload reports its own run's log; the others report the
  // replay's.
  const scrape last(res.scrapes.empty() ? "" : res.scrapes.back());
  auto run_value = [&](const char* name, double fallback) {
    for (const metric& m : res.run_layer)
      if (m.name == name) return m.value;
    return fallback;
  };
  out.add_layer("persist.wal_bytes_per_key",
                run_value("persist.wal_bytes_per_key",
                          keys > 0 ? ds.wal_bytes / keys : 0),
                "B/key");
  out.add_layer("persist.fsyncs",
                run_value("persist.fsyncs", static_cast<double>(ds.wal_fsyncs)),
                "count");
  out.add_layer("persist.fsync_p99_ns",
                res.durable ? last.hist_percentile("gf_wal_fsync_ns", "", 0.99)
                           : fsync_p99,
                "ns");
  out.add_layer("persist.checkpoints",
                run_value("persist.checkpoints",
                          static_cast<double>(ds.checkpoints)),
                "count");
  out.add_layer("persist.checkpoint_p99_ms",
                (res.durable ? last.hist_percentile("gf_checkpoint_duration_ns",
                                                   "", 0.99)
                            : checkpoint_p99) *
                    1e-6,
                "ms");
  out.add_layer("persist.replayed_frames_on_restart",
                run_value("persist.replayed_frames_on_restart",
                          static_cast<double>(replayed)),
                "count");
  out.add_layer("net.repl.frames_forwarded_per_frame",
                run_value("net.repl.frames_forwarded_per_frame", 0), "ratio");
  out.add_layer("net.repl.lag_frames_max",
                run_value("net.repl.lag_frames_max", 0), "count");
}

}  // namespace

void measure_layers(const options& o, pass_result& res, report& out) {
  tracer tr(true, 100);
  out.add_layer("net.client.submit_ns_p50", percentile(res.submit_ns, 0.5),
                "ns");
  out.add_layer("net.client.wait_blocked_frac", res.wait_blocked_frac, "frac");
  out.add_layer("net.client.generator_late_p99_us", res.generator_late_p99_us,
                "us");
  const auto& frames = res.rec->frames();
  measure_codec(o, frames, tr, out);
  measure_server(res, out);
  const batches b = split(frames);
  const double serial = measure_store(res, b, tr, out);
  measure_filter(res, b, serial, tr, out);
  measure_pool(o, res, b, tr, out);
  measure_persist(res, tr, out);

  // Self time per span name, over the traced pass and the replays.
  std::vector<const tracer*> all;
  for (const auto& t : res.tracers) all.push_back(t.get());
  all.push_back(&tr);
  for (const auto& [name, tot] : self_times(all)) {
    out.add_detail("span." + name + ".count", static_cast<double>(tot.count),
                   "count");
    out.add_detail("span." + name + ".total_ms", tot.total_ns * 1e-6, "ms");
    out.add_detail("span." + name + ".self_ms", tot.self_ns * 1e-6, "ms");
  }
  write_trace(g_scratch_root + "/trace-" + o.workload + ".json", all);
}

}  // namespace pb
