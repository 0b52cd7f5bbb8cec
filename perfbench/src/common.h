// Shared pieces of the filter-service benchmark: deterministic key streams,
// timing and percentile helpers, the metric report every workload fills,
// the in-memory span tracer of traced runs, and a parser for the server's
// Prometheus-style metrics text.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/server.h"
#include "store/store.h"

namespace pb {

namespace net = gf::net;
namespace persist = gf::persist;
namespace store = gf::store;

// -- Time ---------------------------------------------------------------------

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(uint64_t t0) { return (now_ns() - t0) * 1e-9; }

// -- Deterministic inputs -----------------------------------------------------

/// splitmix64 finalizer: a bijection on 64-bit words.
inline uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Key `i` of key stream `stream` under `seed`.  Distinct (stream, i) pairs
/// give distinct keys for one seed (i < 2^48), so "never inserted" keys are
/// a separate stream rather than a guess.
inline uint64_t key_at(uint64_t seed, uint64_t stream, uint64_t i) {
  return mix64(mix64(seed) + (stream << 48) + i);
}

inline constexpr uint64_t kStreamInserted = 1;
inline constexpr uint64_t kStreamAbsent = 2;

struct rng {
  uint64_t s;
  explicit rng(uint64_t seed) : s(mix64(seed)) {}
  uint64_t next() { return mix64(s += 0x9E3779B97F4A7C15ull); }
  double unit() { return (next() >> 11) * 0x1.0p-53; }
};

/// Zipf(theta) over ranks [0, n) by inverse-CDF table lookup.
class zipf_table {
 public:
  zipf_table(uint64_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint64_t sample(rng& r) const {
    const double u = r.unit();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// -- Statistics ---------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]); sorts `v` in place.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(std::ceil(p * v.size()));
  idx = idx == 0 ? 0 : idx - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Tail latency robust to one stalled interval: the median, over
/// consecutive chunks of 1000 samples (in completion order), of each
/// chunk's p-th percentile; a chunk keeps ten samples beyond its p99.
/// Falls back to the plain percentile below two chunks.
inline double chunked_percentile(const std::vector<double>& v, double p) {
  constexpr size_t kChunk = 1000;
  if (v.size() < 2 * kChunk) {
    std::vector<double> c = v;
    return percentile(c, p);
  }
  std::vector<double> per_chunk;
  for (size_t lo = 0; lo + kChunk <= v.size(); lo += kChunk) {
    std::vector<double> c(v.begin() + static_cast<std::ptrdiff_t>(lo),
                          v.begin() + static_cast<std::ptrdiff_t>(lo + kChunk));
    per_chunk.push_back(percentile(c, p));
  }
  return median(per_chunk);
}

// -- Host CPU steal ---------------------------------------------------------

/// Samples the hypervisor's steal counter (/proc/stat) every 5 ms on a
/// background thread, so a run can tell which of its intervals lost CPU to
/// other tenants of the host.
class steal_monitor {
 public:
  steal_monitor();
  ~steal_monitor();
  steal_monitor(const steal_monitor&) = delete;
  steal_monitor& operator=(const steal_monitor&) = delete;

  /// Share of the host's CPU time stolen during [t0, t1).
  double stolen_frac(uint64_t t0, uint64_t t1) const;

 private:
  void loop();

  mutable std::mutex mu_;
  std::vector<std::pair<uint64_t, uint64_t>> samples_;  ///< (ns, ticks)
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The run's monitor (main() owns it); null means no interval is excluded.
extern const steal_monitor* g_steal;

/// An interval counts as disturbed above this stolen share of the host.
inline constexpr double kStealLimit = 0.01;

/// One measured phase: per-frame completion times, latencies and keys.
struct phase_summary {
  double mkeys_s = 0;   ///< median over the undisturbed windows
  double p50_us = 0, p90_us = 0, p99_us = 0;  ///< undisturbed windows' frames
  size_t windows_undisturbed = 0;  ///< of 16
};

/// Split [t0, t1) into 16 equal windows, drop those in which the host lost
/// CPU to steal (when fewer than 4 are undisturbed, keep the 4 least
/// disturbed), and report the median kept window's throughput and the
/// chunked_percentile latencies of the frames completed in the kept
/// windows.  `rtt_us` and `keys` are parallel to `done_ns`
/// (completion order); `rtt_us` may be empty.
phase_summary summarize(const std::vector<uint64_t>& done_ns,
                        const std::vector<double>& rtt_us,
                        const std::vector<double>& keys, uint64_t t0,
                        uint64_t t1);

// -- Report -------------------------------------------------------------------

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produces.  `e2e` holds the contract's end-to-end
/// set, `layer` the per-layer set (traced runs), and `detail` everything
/// else worth printing: the workload's own named figures, sample counts,
/// ladder steps, span self times.
struct report {
  std::vector<metric> e2e;
  std::vector<metric> layer;
  std::vector<metric> detail;
  std::vector<std::string> gates_run;
  std::vector<std::string> gate_failures;
  std::map<std::string, std::string> config;  ///< fingerprint fields
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void add_e2e(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void add_layer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
  void add_detail(const std::string& n, double v, const std::string& u) {
    detail.push_back({n, v, u});
  }
  void gate(const std::string& name, uint64_t violations,
            const std::string& what) {
    gates_run.push_back(name);
    if (violations)
      gate_failures.push_back(name + ": " + std::to_string(violations) + " " +
                              what);
  }
};

// -- Tracing ------------------------------------------------------------------

/// One recorded span.  `parent` indexes the same tracer's span vector
/// (-1 = root); `req` ties the spans of one request (the frame sequence).
struct span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;
  uint64_t req;
};

/// Per-thread in-memory span log; disabled tracers record nothing and cost
/// one branch.  Spans are written out once, when the run ends.
class tracer {
 public:
  explicit tracer(bool on, uint32_t tid = 0) : on_(on), tid_(tid) {
    if (on_) spans_.reserve(1 << 16);
  }
  bool on() const { return on_; }
  uint32_t tid() const { return tid_; }

  int64_t begin(const char* name, int64_t parent = -1, uint64_t req = 0) {
    if (!on_) return -1;
    spans_.push_back({name, now_ns(), 0, parent, req});
    return static_cast<int64_t>(spans_.size() - 1);
  }
  void end(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = now_ns();
  }
  void set_req(int64_t id, uint64_t req) {
    if (id >= 0) spans_[static_cast<size_t>(id)].req = req;
  }
  /// Record an already-timed span; returns its id.
  int64_t add(const char* name, uint64_t t0, uint64_t t1, int64_t parent = -1,
              uint64_t req = 0) {
    if (!on_) return -1;
    spans_.push_back({name, t0, t1, parent, req});
    return static_cast<int64_t>(spans_.size() - 1);
  }
  const std::vector<span>& spans() const { return spans_; }

 private:
  bool on_;
  uint32_t tid_;
  std::vector<span> spans_;
};

/// RAII span.
class scoped_span {
 public:
  scoped_span(tracer& t, const char* name, int64_t parent = -1,
              uint64_t req = 0)
      : t_(t), id_(t.begin(name, parent, req)) {}
  ~scoped_span() { t_.end(id_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer& t_;
  int64_t id_;
};

/// Total and self time (span minus the part its children cover) per span
/// name, over every tracer.
struct span_totals {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};
std::map<std::string, span_totals> self_times(
    const std::vector<const tracer*>& tracers);

/// Write every span as chrome://tracing complete events.
void write_trace(const std::string& path,
                 const std::vector<const tracer*>& tracers);

// -- Server metrics text ------------------------------------------------------

/// Parsed `name{labels} value` samples of one metrics_text() scrape.
class scrape {
 public:
  explicit scrape(const std::string& text = "");
  /// Sum of every sample of `name` whose labels contain `label_part`.
  double sum(const std::string& name, const std::string& label_part = "") const;
  /// Max over the same selection.
  double max(const std::string& name, const std::string& label_part = "") const;
  /// Percentile of histogram `name` merged over every label set containing
  /// `label_part` (lanes merge), as the registry reports it: the upper
  /// bound of the bucket holding rank ceil(p * count).
  double hist_percentile(const std::string& name, const std::string& label_part,
                         double p) const;

 private:
  struct sample {
    std::string name, labels;
    double value;
  };
  std::vector<sample> samples_;
};

// -- In-process server --------------------------------------------------------

/// A net::server running its reactors on a background thread.
class live_server {
 public:
  live_server(net::server_config cfg, store::filter_store st)
      : srv_(std::make_unique<net::server>(std::move(cfg), std::move(st))) {}
  live_server(const live_server&) = delete;
  live_server& operator=(const live_server&) = delete;
  ~live_server() { stop(); }

  /// attach_feed (replica mode) must happen before start().
  net::server& srv() { return *srv_; }
  void start() {
    loop_ = std::thread([this] { srv_->run(); });
  }
  void stop() {
    if (!loop_.joinable()) return;
    srv_->request_stop();
    loop_.join();
  }
  uint16_t port() const { return srv_->port(); }

 private:
  std::unique_ptr<net::server> srv_;
  std::thread loop_;
};

// -- Host -------------------------------------------------------------------

std::map<std::string, std::string> host_fingerprint();
uint64_t l3_bytes();

/// Root for scratch files (WAL directories, trace output); main() sets it
/// from --scratch so a run writes only inside its checkout.
extern std::string g_scratch_root;

/// A fresh, empty directory under g_scratch_root.
std::string scratch_dir(const std::string& tag);

}  // namespace pb
