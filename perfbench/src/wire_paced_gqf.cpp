// wire_paced_gqf: per-frame costs of the wire path, at fixed offered loads.
//
// Open loop: one generator thread drives 2 connections with 64-key frames
// at each rate of a fixed ladder, sending on schedule whether or not
// answers came back, and times every frame from when it was *due*.  The
// mix is INSERT_COUNTED, COUNT and QUERY (a third each); keys are
// Zipf(0.99) over a 2^16-key universe, so the GQF stays inside one core's
// L2, and QUERY frames carry 32 never-inserted keys.  Server: 2 reactors,
// 8 shards, GQF.
//
// Each ladder step reports its latency, how late the generator ran, and
// whether the backlog grew.  A step whose generator ran late is invalid;
// the sustained rate is the highest valid step whose p99 stays under the
// latency limit with no growing backlog.
#include <poll.h>
#include <sys/prctl.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "workloads.h"

namespace pb {

namespace {

constexpr size_t kFrameKeys = 64;
constexpr size_t kAbsentPerQuery = 32;
constexpr unsigned kConns = 2;
constexpr uint32_t kReactors = 2;
constexpr uint32_t kShards = 8;
constexpr uint64_t kUniverse = uint64_t{1} << 16;
constexpr double kTheta = 0.99;
constexpr uint64_t kCapacity = uint64_t{1} << 17;
/// Offered rates, kframes/s, each for a fifth of the run.  The RTT metrics
/// come from the reference rate, well inside capacity, so they measure
/// per-frame cost rather than queueing.
constexpr double kLadder[] = {4, 8, 16};
constexpr double kReferenceRate = 8;
/// The last step offers more than the server can take, for two fifths of
/// the run, with at most kMaxOutstanding frames unanswered: what it
/// delivers is the saturation throughput.
constexpr double kSaturationRate = 48;
constexpr size_t kMaxOutstanding = 1024;
constexpr double kLatencyLimitUs = 2000;  ///< p99 limit for a sustained step
constexpr double kLateLimitUs = 250;      ///< generator p99 lateness limit
constexpr uint64_t kDrainTimeoutNs = 10'000'000'000;

/// A non-blocking protocol connection driven by poll.
struct raw_conn {
  net::socket_fd fd;
  net::frame_decoder dec;
  std::vector<uint8_t> out;
  size_t off = 0;

  void connect_and_ping(uint16_t port) {
    fd = net::tcp_connect("127.0.0.1", port);
    const auto ping = net::encode_control_request(net::opcode::ping, 0);
    if (!net::send_all(fd.get(), ping.data(), ping.size()))
      throw std::runtime_error("ping send failed");
    net::frame f;
    uint8_t buf[256];
    while (dec.next(f) != net::decode_status::ok) {
      const ssize_t n = net::sock_recv(fd.get(), buf, sizeof(buf));
      if (n <= 0) throw std::runtime_error("ping answer lost");
      dec.feed(buf, static_cast<size_t>(n));
    }
    net::set_nonblocking(fd.get());
  }
  void send(const std::vector<uint8_t>& bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
    flush();
  }
  void flush() {
    while (off < out.size()) {
      const ssize_t n = net::sock_send(fd.get(), out.data() + off,
                                       out.size() - off);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      off += static_cast<size_t>(n);
    }
    out.clear();
    off = 0;
  }
  /// Feed everything readable into the decoder; throws at EOF or error.
  void drain_socket() {
    uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = net::sock_recv(fd.get(), buf, sizeof(buf));
      if (n > 0) {
        dec.feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed the connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
  }
};

struct pending {
  uint64_t due_ns = 0;
  uint64_t send_ns = 0;
  uint64_t sent_ns = 0;
  uint32_t step = 0;
  net::opcode op = net::opcode::ping;
  std::vector<uint32_t> ranks;
  /// insert_counted: the counts sent; count/query: acknowledged count of
  /// each rank when the frame was sent (the gate's lower bound).
  std::vector<uint64_t> values;
  std::vector<uint64_t> absent;  ///< query: never-inserted keys
};

struct step_stats {
  double rate = 0;  ///< offered, kframes/s
  double dur_s = 0;
  std::vector<double> lat_us, late_us;
  std::vector<uint64_t> done_ns;          ///< parallel to lat_us
  std::vector<double> wkeys, rkeys;       ///< parallel to lat_us
  std::vector<double> backlog;  ///< outstanding frames, sampled each ms
  uint64_t sent = 0, answered = 0, shed = 0;
  uint64_t write_keys = 0, read_keys = 0;
  uint64_t first_ns = 0, last_answer_ns = 0;
  double p50 = 0, p99 = 0, late_p99 = 0;
  double active_s = 0;  ///< first due send → last answer
  double achieved = 0;  ///< answered kframes/s over active_s
  bool growing = false, valid = true, passes = false;
};

bool backlog_grows(const std::vector<double>& b) {
  if (b.size() < 8) return false;
  const size_t q = b.size() / 4;
  double early = 0, late = 0;
  for (size_t i = q; i < 2 * q; ++i) early += b[i];
  for (size_t i = 3 * q; i < b.size(); ++i) late += b[i];
  early /= static_cast<double>(q);
  late /= static_cast<double>(b.size() - 3 * q);
  return late > 2 * early + 8;
}

}  // namespace

pass_result run_wire_paced_gqf(const options& o, bool traced) {
  pass_result res;
  res.store_cfg = {store::backend_kind::gqf, kShards, kCapacity};
  res.rec = std::make_unique<recording>(traced ? 512 : 0);
  res.tracers.push_back(std::make_unique<tracer>(traced, 0));
  tracer& tr = *res.tracers[0];
  report& rep = res.rep;

  net::server_config scfg;
  scfg.reactors = kReactors;
  std::unique_ptr<live_server> srv;
  std::vector<raw_conn> conns;
  const double setup_s = median_setup(
      o.smoke ? 1 : 25,
      [&] {
        conns.clear();
        srv.reset();
      },
      [&] {
        srv = std::make_unique<live_server>(
            scfg, store::filter_store(res.store_cfg));
        srv->start();
        conns.resize(kConns);
        for (raw_conn& c : conns) c.connect_and_ping(srv->port());
      });
  ::prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 µs: ppoll wakes on schedule

  const zipf_table zipf(kUniverse, kTheta);
  std::vector<uint64_t> acked(kUniverse, 0);
  std::unordered_map<uint64_t, pending> inflight;
  uint64_t next_seq = 1, frame_no = 0, absent_no = 0;
  uint64_t failed = 0, attempted = 0, count_under = 0, false_neg = 0;
  uint64_t fp_hits = 0, absent_q = 0;
  std::vector<step_stats> steps;

  auto rank_key = [&](uint32_t r) {
    return key_at(o.seed, kStreamInserted, r);
  };

  auto send_frame = [&](uint32_t step, uint64_t due) {
    rng r(key_at(o.seed, 3, frame_no));
    const unsigned kind = static_cast<unsigned>(r.next() % 3);
    pending p;
    p.due_ns = due;
    p.step = step;
    std::vector<uint64_t> keys;
    const size_t zipf_keys = kind == 2 ? kFrameKeys - kAbsentPerQuery
                                       : kFrameKeys;
    for (size_t i = 0; i < zipf_keys; ++i) {
      const auto rank = static_cast<uint32_t>(zipf.sample(r));
      p.ranks.push_back(rank);
      keys.push_back(rank_key(rank));
    }
    const uint64_t seq = next_seq++;
    std::vector<uint8_t> bytes;
    p.send_ns = now_ns();
    if (kind == 0) {
      p.op = net::opcode::insert_counted;
      for (size_t i = 0; i < zipf_keys; ++i)
        p.values.push_back(1 + r.next() % 4);
      bytes = net::encode_insert_counted_request(seq, keys, p.values);
    } else {
      p.op = kind == 1 ? net::opcode::count : net::opcode::query;
      for (uint32_t rank : p.ranks) p.values.push_back(acked[rank]);
      if (kind == 2)
        for (size_t i = 0; i < kAbsentPerQuery; ++i) {
          p.absent.push_back(key_at(o.seed, kStreamAbsent, absent_no++));
          keys.push_back(p.absent.back());
        }
      bytes = net::encode_keys_request(p.op, seq, keys);
    }
    conns[frame_no % kConns].send(bytes);
    p.sent_ns = now_ns();
    ++frame_no;
    ++attempted;
    inflight.emplace(seq, std::move(p));
  };

  auto on_response = [&](const net::frame& r, uint64_t t) {
    auto it = inflight.find(r.sequence);
    if (it == inflight.end()) throw std::runtime_error("unexpected response");
    pending& p = it->second;
    step_stats& s = steps[p.step];
    s.lat_us.push_back((t - p.due_ns) * 1e-3);
    s.done_ns.push_back(t);
    s.wkeys.push_back(0);
    s.rkeys.push_back(0);
    ++s.answered;
    s.last_answer_ns = t;
    if (tr.on()) {
      const int64_t fs =
          tr.add("net.client.frame", p.due_ns, t, -1, r.sequence);
      tr.add("net.client.submit", p.send_ns, p.sent_ns, fs, r.sequence);
      res.submit_ns.push_back(static_cast<double>(p.sent_ns - p.send_ns));
    }
    std::vector<uint64_t> keys;
    if (res.rec->wants(p.op)) {
      for (uint32_t rank : p.ranks) keys.push_back(rank_key(rank));
      keys.insert(keys.end(), p.absent.begin(), p.absent.end());
    }
    if (!answered(r)) {
      ++failed;
    } else if (p.op == net::opcode::insert_counted) {
      const auto pair = net::decode_pair_response(r);
      if (pair.failed) {
        ++failed;
      } else {
        for (size_t i = 0; i < p.ranks.size(); ++i)
          acked[p.ranks[i]] += p.values[i];
      }
      s.write_keys += p.ranks.size();
      s.wkeys.back() = static_cast<double>(p.ranks.size());
      if (!keys.empty())
        res.rec->add({p.op, std::move(keys), p.values, r});
    } else if (p.op == net::opcode::count) {
      const auto got = net::decode_counts(r);
      for (size_t i = 0; i < p.ranks.size(); ++i)
        if (i >= got.size() || got[i] < p.values[i]) ++count_under;
      s.read_keys += p.ranks.size();
      s.rkeys.back() = static_cast<double>(p.ranks.size());
      if (!keys.empty()) res.rec->add({p.op, std::move(keys), {}, r});
    } else {
      const auto bits = net::decode_bitmap(r);
      for (size_t i = 0; i < p.ranks.size(); ++i)
        if (p.values[i] > 0 && !net::bitmap_test(bits, i)) ++false_neg;
      for (size_t i = 0; i < p.absent.size(); ++i)
        fp_hits += net::bitmap_test(bits, p.ranks.size() + i) ? 1 : 0;
      absent_q += p.absent.size();
      s.read_keys += p.ranks.size() + p.absent.size();
      s.rkeys.back() = static_cast<double>(p.ranks.size() + p.absent.size());
      if (!keys.empty()) res.rec->add({p.op, std::move(keys), {}, r});
    }
    inflight.erase(it);
  };

  auto pump = [&](uint64_t timeout_ns) {
    pollfd pfds[kConns];
    for (unsigned c = 0; c < kConns; ++c) {
      pfds[c].fd = conns[c].fd.get();
      pfds[c].events =
          static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT));
      pfds[c].revents = 0;
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    const int rc = ::ppoll(pfds, kConns, &ts, nullptr);
    if (rc < 0 && errno != EINTR)
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    if (rc <= 0) return;
    const uint64_t t = now_ns();
    for (unsigned c = 0; c < kConns; ++c) {
      if (pfds[c].revents & POLLOUT) conns[c].flush();
      if (!(pfds[c].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      conns[c].drain_socket();
      net::frame f;
      for (;;) {
        const auto st = conns[c].dec.next(f);
        if (st == net::decode_status::need_more) break;
        if (st == net::decode_status::error)
          throw std::runtime_error("malformed response stream");
        on_response(f, t);
      }
    }
  };

  std::vector<std::pair<double, double>> ladder;  // (rate, seconds)
  for (double rate : kLadder) ladder.push_back({rate, o.seconds / 5});
  ladder.push_back({kSaturationRate, 2 * o.seconds / 5});
  for (auto [rate, step_s] : ladder) {
    if (o.smoke) step_s = 0.05;
    const uint32_t idx = static_cast<uint32_t>(steps.size());
    steps.emplace_back();
    steps.back().rate = rate;
    steps.back().dur_s = step_s;
    const uint64_t period = static_cast<uint64_t>(1e6 / rate);  // ns
    const uint64_t t0 = now_ns() + 1'000'000;
    const uint64_t end = t0 + static_cast<uint64_t>(step_s * 1e9);
    uint64_t due = t0, next_sample = t0;
    steps[idx].first_ns = t0;
    for (;;) {
      const uint64_t t = now_ns();
      if (due < end && t >= due) {
        if (inflight.size() >= kMaxOutstanding) {
          ++steps[idx].shed;  // the open loop's bound: this slot is skipped
        } else {
          steps[idx].late_us.push_back((t - due) * 1e-3);
          send_frame(idx, due);
          ++steps[idx].sent;
        }
        due += period;
        continue;
      }
      if (t >= next_sample && t < end) {
        steps[idx].backlog.push_back(static_cast<double>(inflight.size()));
        next_sample += 1'000'000;
      }
      if (due >= end) {
        if (inflight.empty()) break;
        if (t > end + kDrainTimeoutNs) {
          failed += inflight.size();  // timed out: never answered
          throw std::runtime_error("frames unanswered after the drain timeout");
        }
      }
      uint64_t wait = due < end ? due - t : 1'000'000;
      if (t < end) wait = std::min(wait, next_sample > t ? next_sample - t : 0);
      pump(wait);
    }
    if (traced) res.scrapes.push_back(scrape_text("127.0.0.1", srv->port()));
  }
  conns.clear();
  srv->stop();

  // The scored figures: latency at the reference rate, throughput at
  // saturation, each over the windows the host did not disturb.
  const step_stats* ref = nullptr;
  for (const step_stats& s : steps)
    if (s.rate == kReferenceRate) ref = &s;
  const step_stats& sat = steps.back();
  auto span_of = [](const step_stats& s) {
    return std::make_pair(s.first_ns,
                          s.first_ns + static_cast<uint64_t>(s.dur_s * 1e9));
  };
  const auto [ref0, ref1] = span_of(*ref);
  const phase_summary ref_sum =
      summarize(ref->done_ns, ref->lat_us, ref->wkeys, ref0, ref1);
  const auto [sat0, sat1] = span_of(sat);
  const double write =
      summarize(sat.done_ns, {}, sat.wkeys, sat0, sat1).mkeys_s;
  const phase_summary sat_read =
      summarize(sat.done_ns, {}, sat.rkeys, sat0, sat1);
  const double read = sat_read.mkeys_s;

  // Score the ladder.
  const step_stats* sustained = nullptr;
  std::vector<double> all_lat;
  for (step_stats& s : steps) {
    all_lat.insert(all_lat.end(), s.lat_us.begin(), s.lat_us.end());
    s.p50 = percentile(s.lat_us, 0.5);
    s.p99 = percentile(s.lat_us, 0.99);
    s.late_p99 = percentile(s.late_us, 0.99);
    s.active_s = s.last_answer_ns > s.first_ns
                     ? (s.last_answer_ns - s.first_ns) * 1e-9
                     : s.dur_s;
    s.achieved = s.answered / s.active_s * 1e-3;
    s.growing = s.shed > 0 || backlog_grows(s.backlog);
    s.valid = s.late_p99 <= kLateLimitUs;
    s.passes = s.valid && !s.growing && s.p99 <= kLatencyLimitUs;
    if (s.passes) sustained = &s;
    char name[64];
    std::snprintf(name, sizeof(name), "step_%g", s.rate);
    const std::string n = name;
    rep.add_detail(n + ".achieved_kframes_s", s.achieved, "kframes/s");
    rep.add_detail(n + ".rtt_p50_us", s.p50, "us");
    rep.add_detail(n + ".rtt_p99_us", s.p99, "us");
    rep.add_detail(n + ".generator_late_p99_us", s.late_p99, "us");
    rep.add_detail(n + ".backlog_growing", s.growing ? 1 : 0, "bool");
    rep.add_detail(n + ".valid", s.valid ? 1 : 0, "bool");
    rep.add_detail(n + ".samples", static_cast<double>(s.lat_us.size()),
                   "count");
    rep.add_detail(n + ".shed_slots", static_cast<double>(s.shed), "count");
  }
  const double sat_kframes = (write + read) * 1e3 / kFrameKeys;

  const store::filter_store& st = srv->srv().store();
  rep.attempted = attempted;
  rep.failed = failed;
  rep.gate("count_not_below_acked", count_under,
           "COUNT answers below the acknowledged inserted count");
  rep.gate("no_false_negatives", false_neg,
           "acknowledged keys answered absent by QUERY");

  rep.add_e2e("setup_s", setup_s, "s");
  rep.add_e2e("write_mkeys_s", write, "Mkeys/s");
  rep.add_e2e("read_mkeys_s", read, "Mkeys/s");
  rep.add_e2e("frame_rtt_p50_us", ref_sum.p50_us, "us");
  rep.add_detail("frame_rtt_p90_us", ref_sum.p90_us, "us");
  rep.add_e2e("false_positive_rate",
              absent_q ? static_cast<double>(fp_hits) / absent_q : 0.0,
              "ratio");
  rep.add_e2e("bits_per_key",
              st.size() ? st.memory_bytes() * 8.0 / st.size() : 0.0,
              "bits/key");

  rep.add_detail("sustained_kframes_s", sustained ? sustained->achieved : 0,
                 "kframes/s");
  rep.add_detail("saturation_kframes_s", sat_kframes, "kframes/s");
  rep.add_detail("reference_rtt_p99_us_whole_step", ref->p99, "us");
  rep.add_detail("frame_rtt_p99_us", ref_sum.p99_us, "us");
  rep.add_detail("reference_windows_undisturbed",
                 static_cast<double>(ref_sum.windows_undisturbed), "count");
  rep.add_detail("saturation_windows_undisturbed",
                 static_cast<double>(sat_read.windows_undisturbed), "count");
  rep.add_detail("error_rate",
                 attempted ? static_cast<double>(failed) / attempted : 0.0,
                 "ratio");
  rep.add_detail("distinct_keys_stored", static_cast<double>(st.size()),
                 "count");

  rep.config["backend"] = "gqf";
  rep.config["reactors"] = std::to_string(kReactors);
  rep.config["shards"] = std::to_string(kShards);
  rep.config["keys_universe"] = std::to_string(kUniverse);
  rep.config["frames_sent"] = std::to_string(attempted);
  rep.config["store_mib"] =
      std::to_string(static_cast<double>(st.memory_bytes()) / (1 << 20));
  rep.config["loop"] =
      "open, 1 generator x 2 connections, 64-key frames, ladder 4/8/16 "
      "kframes/s + saturation step at 48 (max 1024 outstanding), "
      "reference 8, p99 limit 2000 us";
  rep.config["rtt_samples"] = std::to_string(ref->lat_us.size());

  res.generator_late_p99_us = ref->late_p99;
  res.client_rtt_p50_us = percentile(all_lat, 0.5);
  res.write_mkeys_s = write;
  res.frame_rtt_p50_us = ref_sum.p50_us;
  res.wait_blocked_frac = 0;  // an open loop never blocks on its window
  return res;
}

}  // namespace pb
