#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "gpu/thread_pool.h"

namespace pb {

std::string g_scratch_root = ".";
const steal_monitor* g_steal = nullptr;

// -- Host CPU steal ---------------------------------------------------------

namespace {

uint64_t read_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  return v[7];  // user nice system idle iowait irq softirq steal
}

}  // namespace

steal_monitor::steal_monitor() : thread_([this] { loop(); }) {}

steal_monitor::~steal_monitor() {
  stop_ = true;
  thread_.join();
}

void steal_monitor::loop() {
  while (!stop_.load()) {
    const auto s = std::make_pair(now_ns(), read_steal_ticks());
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back(s);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

double steal_monitor::stolen_frac(uint64_t t0, uint64_t t1) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2 || t1 <= t0) return 0;
  auto at_or_before = [&](uint64_t t) {
    auto it = std::upper_bound(
        samples_.begin(), samples_.end(), t,
        [](uint64_t x, const std::pair<uint64_t, uint64_t>& s) {
          return x < s.first;
        });
    return it == samples_.begin() ? it : it - 1;
  };
  const auto a = at_or_before(t0);
  auto b = at_or_before(t1);
  if (b + 1 != samples_.end()) ++b;  // cover the whole interval
  if (b->first <= a->first) return 0;
  static const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  const double stolen_s = static_cast<double>(b->second - a->second) / hz;
  return stolen_s / ((b->first - a->first) * 1e-9 * cpus);
}

phase_summary summarize(const std::vector<uint64_t>& done_ns,
                        const std::vector<double>& rtt_us,
                        const std::vector<double>& keys, uint64_t t0,
                        uint64_t t1) {
  constexpr size_t kWindows = 16;
  phase_summary out;
  if (t1 <= t0) return out;
  const double win_ns = static_cast<double>(t1 - t0) / kWindows;
  auto window_of = [&](uint64_t t) {
    return t < t0 ? kWindows
                  : static_cast<size_t>(static_cast<double>(t - t0) / win_ns);
  };
  constexpr size_t kMinKept = 4;
  std::vector<double> stolen(kWindows, 0.0);
  for (size_t w = 0; w < kWindows; ++w)
    if (g_steal != nullptr)
      stolen[w] = g_steal->stolen_frac(
          t0 + static_cast<uint64_t>(w * win_ns),
          t0 + static_cast<uint64_t>((w + 1) * win_ns));
  std::vector<bool> keep(kWindows);
  for (size_t w = 0; w < kWindows; ++w) {
    keep[w] = stolen[w] <= kStealLimit;
    out.windows_undisturbed += keep[w] ? 1 : 0;
  }
  if (out.windows_undisturbed < kMinKept) {
    std::vector<size_t> order(kWindows);
    for (size_t w = 0; w < kWindows; ++w) order[w] = w;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return stolen[a] < stolen[b];
    });
    for (size_t i = 0; i < kWindows; ++i) keep[order[i]] = i < kMinKept;
  }
  std::vector<double> per_window(kWindows, 0.0);
  std::vector<double> lat;
  for (size_t i = 0; i < done_ns.size(); ++i) {
    const size_t w = window_of(done_ns[i]);
    if (w >= kWindows || !keep[w]) continue;
    per_window[w] += keys[i];
    if (!rtt_us.empty()) lat.push_back(rtt_us[i]);
  }
  std::vector<double> rates;
  for (size_t w = 0; w < kWindows; ++w)
    if (keep[w]) rates.push_back(per_window[w] / win_ns * 1e3);
  out.mkeys_s = median(rates);
  out.p99_us = chunked_percentile(lat, 0.99);
  out.p90_us = chunked_percentile(lat, 0.9);
  out.p50_us = chunked_percentile(lat, 0.5);
  return out;
}

std::string scratch_dir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = g_scratch_root + "/" + tag + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// -- Tracing ------------------------------------------------------------------

std::map<std::string, span_totals> self_times(
    const std::vector<const tracer*>& tracers) {
  std::map<std::string, span_totals> out;
  for (const tracer* t : tracers) {
    const auto& sp = t->spans();
    std::vector<double> child_ns(sp.size(), 0.0);
    for (const span& s : sp)
      if (s.parent >= 0 && s.end_ns >= s.start_ns)
        child_ns[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
    for (size_t i = 0; i < sp.size(); ++i) {
      if (sp[i].end_ns < sp[i].start_ns) continue;  // never closed
      const double total = static_cast<double>(sp[i].end_ns - sp[i].start_ns);
      span_totals& st = out[sp[i].name];
      ++st.count;
      st.total_ns += total;
      st.self_ns += std::max(0.0, total - child_ns[i]);
    }
  }
  return out;
}

void write_trace(const std::string& path,
                 const std::vector<const tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return;
  uint64_t t0 = UINT64_MAX;
  for (const tracer* t : tracers)
    for (const span& s : t->spans()) t0 = std::min(t0, s.start_ns);
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const tracer* t : tracers) {
    const auto& sp = t->spans();
    for (size_t i = 0; i < sp.size(); ++i) {
      const span& s = sp[i];
      if (s.end_ns < s.start_ns) continue;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%lld,\"req\":%llu}}",
                    first ? "" : ",\n", s.name, t->tid(),
                    (s.start_ns - t0) / 1e3, (s.end_ns - s.start_ns) / 1e3, i,
                    static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.req));
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
}

// -- Server metrics text ------------------------------------------------------

scrape::scrape(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    sample s;
    const std::string head = line.substr(0, sp);
    s.value = std::strtod(line.c_str() + sp + 1, nullptr);
    const size_t brace = head.find('{');
    if (brace == std::string::npos) {
      s.name = head;
    } else {
      s.name = head.substr(0, brace);
      s.labels = head.substr(brace + 1, head.size() - brace - 2);
    }
    samples_.push_back(std::move(s));
  }
}

double scrape::sum(const std::string& name,
                   const std::string& label_part) const {
  double v = 0;
  for (const sample& s : samples_)
    if (s.name == name && s.labels.find(label_part) != std::string::npos)
      v += s.value;
  return v;
}

double scrape::max(const std::string& name,
                   const std::string& label_part) const {
  double v = 0;
  for (const sample& s : samples_)
    if (s.name == name && s.labels.find(label_part) != std::string::npos)
      v = std::max(v, s.value);
  return v;
}

double scrape::hist_percentile(const std::string& name,
                               const std::string& label_part,
                               double p) const {
  // Cumulative bucket counts per label set (the le label stripped), turned
  // into per-bucket counts and merged across label sets on the shared
  // power-of-two grid.
  std::map<std::string, std::vector<std::pair<double, double>>> groups;
  const std::string bucket = name + "_bucket";
  for (const sample& s : samples_) {
    if (s.name != bucket || s.labels.find(label_part) == std::string::npos)
      continue;
    const size_t le = s.labels.find("le=\"");
    if (le == std::string::npos) continue;
    const std::string bound = s.labels.substr(le + 4);
    if (bound.rfind("+Inf", 0) == 0) continue;
    groups[s.labels.substr(0, le)].push_back(
        {std::strtod(bound.c_str(), nullptr), s.value});
  }
  std::map<double, double> merged;
  for (auto& [labels, cum] : groups) {
    std::sort(cum.begin(), cum.end());
    double prev = 0;
    for (auto [le, c] : cum) {
      merged[le] += c - prev;
      prev = c;
    }
  }
  double total = 0;
  for (auto& [le, c] : merged) total += c;
  if (total <= 0) return 0;
  const double rank = std::max(1.0, std::ceil(p * total));
  double acc = 0;
  for (auto& [le, c] : merged) {
    acc += c;
    if (acc >= rank) return le;
  }
  return merged.rbegin()->first;
}

// -- Host -------------------------------------------------------------------

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

uint64_t cache_bytes(int index) {
  const std::string s = read_first_line(
      "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) +
      "/size");
  if (s.empty()) return 0;
  uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
  if (s.back() == 'K') v <<= 10;
  if (s.back() == 'M') v <<= 20;
  return v;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

}  // namespace

uint64_t l3_bytes() { return cache_bytes(3); }

std::map<std::string, std::string> host_fingerprint() {
  std::map<std::string, std::string> f;
  f["nproc"] = std::to_string(std::thread::hardware_concurrency());
  f["cpu_model"] = cpu_model();
  f["l2_bytes"] = std::to_string(cache_bytes(2));
  f["l3_bytes"] = std::to_string(cache_bytes(3));
  f["compiler"] = std::string("gcc-compatible ") + __VERSION__;
  f["build_type"] = PB_BUILD_TYPE;
  const char* w = std::getenv("GF_NUM_WORKERS");
  f["GF_NUM_WORKERS"] = w ? w : "unset";
  f["pool_width"] = std::to_string(gf::gpu::query_pool_size());
  return f;
}

}  // namespace pb
