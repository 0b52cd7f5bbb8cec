// The benchmark's workloads and the traced run's per-layer replays.
//
// Each workload is one pass: set up (timed, several times), drive the
// in-process server over loopback, check the answers, fill a report.  A
// traced pass also records spans, scrapes the server, and keeps a sample
// of its frames, which measure_layers() replays through each layer's
// public functions.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "persist/wal.h"

namespace pb {

struct options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  ///< tiny sizes: exercises every path, measures nothing
};

/// One request frame of the run with the server's answer, kept for replay.
struct recorded_frame {
  net::opcode op = net::opcode::ping;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> counts;  ///< insert_counted only
  net::frame response;
};

/// A bounded, thread-safe sample of the run's frames: at most `cap` of
/// each opcode.  Empty (cap 0) in untraced passes.
class recording {
 public:
  explicit recording(size_t cap = 0) : cap_(cap) {}
  bool wants(net::opcode op) const {
    return taken_[static_cast<size_t>(op)].load() < cap_;
  }
  void add(recorded_frame f) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& taken = taken_[static_cast<size_t>(f.op)];
    if (taken.load() >= cap_) return;
    taken.fetch_add(1);
    frames_.push_back(std::move(f));
  }
  /// Read after the pass's threads have joined.
  const std::vector<recorded_frame>& frames() const { return frames_; }

 private:
  size_t cap_;
  std::mutex mu_;
  std::vector<recorded_frame> frames_;  ///< guarded by mu_
  std::atomic<size_t> taken_[net::kNumOpcodes] = {};
};

/// What a pass hands to the per-layer replays besides its report.
struct pass_result {
  report rep;
  store::store_config store_cfg;
  std::vector<std::unique_ptr<tracer>> tracers;
  std::unique_ptr<recording> rec;
  std::vector<std::string> scrapes;  ///< metrics_text() at each phase end
  std::vector<double> submit_ns;     ///< client submit call durations
  double wait_blocked_frac = 0;
  double generator_late_p99_us = 0;  ///< open loop only
  double client_rtt_p50_us = 0;      ///< all frames, for socket_share
  double write_mkeys_s = 0;
  double frame_rtt_p50_us = 0;
  bool durable = false;
  std::vector<metric> run_layer;     ///< per-layer values measured in-run
};

/// An answered request (ok_async is a degraded ack, not a failure).
inline bool answered(const net::frame& f) {
  return f.status == net::wire_status::ok ||
         f.status == net::wire_status::ok_async;
}

/// Scrape the server through the wire, as an operator would.
inline std::string scrape_text(const std::string& host, uint16_t port) {
  net::client ctl(host, port);
  return ctl.metrics_text();
}

// -- Closed-loop client -------------------------------------------------------

struct loop_stats {
  std::vector<double> rtt_us;     ///< send → response, per frame
  std::vector<double> submit_ns;  ///< traced only
  std::vector<uint64_t> done_ns;  ///< response arrival, per frame
  uint64_t frames = 0;
  uint64_t blocked_ns = 0;        ///< inside wait() with a full window
  uint64_t wall_ns = 0;
};

/// Keep `window` frames in flight on one connection.  `submit(i, cli)`
/// sends frame i and returns its sequence, or 0 when the phase is done;
/// `check(i, response)` validates each answer in frame order.
template <class Submit, class Check>
void closed_loop(net::client& cli, unsigned window, Submit&& submit,
                 Check&& check, loop_stats& st, tracer& tr) {
  struct inflight {
    uint64_t seq, t_send, idx;
    int64_t span;
  };
  std::vector<inflight> q;
  q.reserve(window);
  size_t head = 0;
  const uint64_t t_begin = now_ns();
  auto settle = [&](bool window_full) {
    const inflight f = q[head++];
    const uint64_t t0 = now_ns();
    net::frame resp;
    {
      scoped_span w(tr, "net.client.wait", f.span, f.seq);
      resp = cli.wait(f.seq);
    }
    const uint64_t t1 = now_ns();
    if (window_full) st.blocked_ns += t1 - t0;
    tr.end(f.span);
    st.rtt_us.push_back((t1 - f.t_send) * 1e-3);
    st.done_ns.push_back(t1);
    check(f.idx, resp);
    if (head == q.size()) {
      q.clear();
      head = 0;
    }
  };
  for (uint64_t i = 0;; ++i) {
    if (q.size() - head >= window) settle(true);
    const int64_t fs = tr.begin("net.client.frame");
    const uint64_t t0 = now_ns();
    uint64_t seq;
    {
      scoped_span s(tr, "net.client.submit", fs);
      seq = submit(i, cli);
    }
    if (seq == 0) break;
    if (tr.on()) {
      st.submit_ns.push_back(static_cast<double>(now_ns() - t0));
      tr.set_req(fs, seq);
    }
    q.push_back({seq, t0, i, fs});
    ++st.frames;
  }
  while (head < q.size()) settle(false);
  st.wall_ns += now_ns() - t_begin;
}

/// Median seconds of `reps` set-ups: `teardown()` (untimed) undoes the
/// previous one, then `setup()` is timed.  The first set-ups of a process
/// also fault in fresh pages; later ones reuse them, and the median
/// reports the steady cost.
template <class Teardown, class Setup>
double median_setup(int reps, Teardown&& teardown, Setup&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    teardown();
    const uint64_t t0 = now_ns();
    setup();
    s.push_back((now_ns() - t0) * 1e-9);
  }
  return median(s);
}

// -- Workloads ----------------------------------------------------------------

pass_result run_wire_bulk_tcf(const options& o, bool traced);
pass_result run_wire_paced_gqf(const options& o, bool traced);
pass_result run_durable_ingest_btcf(const options& o, bool traced);

/// durable_ingest_btcf's WAL settings in `dir`; the other workloads'
/// traced runs replay their frames into a log with the same settings.
persist::wal_config durable_wal_config(const std::string& dir);

/// Replay the traced pass's frames through each layer and append the
/// per-layer metrics to `out`.
void measure_layers(const options& o, pass_result& res, report& out);

/// Pool width every workload pins (GF_NUM_WORKERS).
inline constexpr unsigned kWorkers = 2;

}  // namespace pb
