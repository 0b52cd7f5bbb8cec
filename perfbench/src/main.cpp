// perfbench: the filter service's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--smoke]
//
// Untraced (--trace 0): runs the workload once and reports the end-to-end
// metrics.  Traced (--trace 1): runs it untraced and then traced with the
// same seed (so the tracing overhead shows), then replays the traced
// pass's frames through each layer and reports the per-layer metrics.
//
// Output: a `report` JSON line (host and config fingerprint, the
// workload's named figures, gates, span self times), then as the last line
// the result: {"correct", "attempted", "failed", "metrics"}.  A failed
// correctness gate names the workload and seed on stderr and exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

using namespace pb;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + json_escape(ms[i].name) + "\": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": \"" +
           json_escape(ms[i].unit) + "\"}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wire_bulk_tcf|wire_paced_gqf|"
               "durable_ingest_btcf --seed N --seconds S --trace 0|1 "
               "[--scratch DIR] [--smoke]\n");
  return 2;
}

pass_result run_pass(const options& o, bool traced) {
  if (o.workload == "wire_bulk_tcf") return run_wire_bulk_tcf(o, traced);
  if (o.workload == "wire_paced_gqf") return run_wire_paced_gqf(o, traced);
  return run_durable_ingest_btcf(o, traced);
}

/// Untraced passes of an end-to-end run (--trace 0).  The closed-loop
/// workloads' rates moved by up to an eighth from one pass to the next
/// inside one process, each pass with its own set-up, so their runs report
/// the median over several passes.  wire_paced_gqf's figures moved with the
/// host from one run to the next instead, which more passes do not steady.
unsigned passes_for(const std::string& workload) {
  if (workload == "durable_ingest_btcf") return 5;
  if (workload == "wire_bulk_tcf") return 3;
  return 1;
}

/// The untraced passes of a run: each end-to-end metric is the median over
/// the passes, counts and gates add up, and the last pass supplies the
/// rest of the report.  A traced run makes one untraced pass, which only
/// sets the tracing overhead against the traced one.
pass_result run_untraced(const options& o) {
  const unsigned n = o.smoke || o.trace ? 1 : passes_for(o.workload);
  std::vector<pass_result> passes;
  for (unsigned p = 0; p < n; ++p) passes.push_back(run_pass(o, false));
  auto median_of = [&](auto get) {
    std::vector<double> v;
    for (const pass_result& p : passes) v.push_back(get(p));
    return median(v);
  };
  std::vector<double> e2e(passes.back().rep.e2e.size());
  for (size_t i = 0; i < e2e.size(); ++i)
    e2e[i] =
        median_of([i](const pass_result& p) { return p.rep.e2e[i].value; });

  pass_result merged = std::move(passes.back());
  passes.pop_back();
  report& rep = merged.rep;
  for (size_t i = 0; i < e2e.size(); ++i) rep.e2e[i].value = e2e[i];
  for (const pass_result& p : passes) {
    rep.attempted += p.rep.attempted;
    rep.failed += p.rep.failed;
    for (auto& g : p.rep.gates_run) rep.gates_run.push_back(g);
    for (auto& g : p.rep.gate_failures) rep.gate_failures.push_back(g);
  }
  rep.config["passes"] = std::to_string(n);
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  std::string scratch = ".bench_build/scratch";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) o.workload = argv[++i];
    else if (a == "--seed" && has)
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has)
      o.seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--trace" && has) o.trace = std::strcmp(argv[++i], "0") != 0;
    else if (a == "--scratch" && has) scratch = argv[++i];
    else if (a == "--smoke") o.smoke = true;
    else return usage();
  }
  if (o.workload != "wire_bulk_tcf" && o.workload != "wire_paced_gqf" &&
      o.workload != "durable_ingest_btcf")
    return usage();
  if (!(o.seconds > 0)) return usage();

  // Pin the pool width before anything starts the process-wide pool.
  ::setenv("GF_NUM_WORKERS", std::to_string(kWorkers).c_str(), 1);
  std::filesystem::create_directories(scratch);
  g_scratch_root = scratch;
  const steal_monitor steal;
  g_steal = &steal;
  const uint64_t t_run = now_ns();

  report out;
  pass_result main_pass;
  try {
    main_pass = run_untraced(o);
    out = std::move(main_pass.rep);
    if (o.trace) {
      pass_result traced = run_pass(o, /*traced=*/true);
      out.attempted += traced.rep.attempted;
      out.failed += traced.rep.failed;
      for (auto& g : traced.rep.gates_run) out.gates_run.push_back(g);
      for (auto& g : traced.rep.gate_failures) out.gate_failures.push_back(g);
      out.add_layer("trace.write_mkeys_s_untraced", main_pass.write_mkeys_s,
                    "Mkeys/s");
      out.add_layer("trace.write_mkeys_s_traced", traced.write_mkeys_s,
                    "Mkeys/s");
      out.add_layer("trace.frame_rtt_p50_us_untraced",
                    main_pass.frame_rtt_p50_us, "us");
      out.add_layer("trace.frame_rtt_p50_us_traced", traced.frame_rtt_p50_us,
                    "us");
      for (const metric& m : traced.rep.e2e)
        out.add_detail("traced." + m.name, m.value, m.unit);
      measure_layers(o, traced, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s seed %llu failed: %s\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                 e.what());
    return 1;
  }

  auto fp = host_fingerprint();
  for (auto& [k, v] : out.config) fp[k] = v;
  fp["workload"] = o.workload;
  fp["seed"] = std::to_string(o.seed);
  fp["seconds"] = json_number(o.seconds);
  fp["trace"] = o.trace ? "1" : "0";
  fp["smoke"] = o.smoke ? "1" : "0";
  fp["host_steal_frac"] = json_number(steal.stolen_frac(t_run, now_ns()));

  std::string cfg = "{";
  for (auto it = fp.begin(); it != fp.end(); ++it) {
    if (it != fp.begin()) cfg += ", ";
    cfg += "\"" + json_escape(it->first) + "\": \"" + json_escape(it->second) +
           "\"";
  }
  cfg += "}";
  std::string gates = "[";
  for (size_t i = 0; i < out.gates_run.size(); ++i)
    gates += (i ? ", \"" : "\"") + json_escape(out.gates_run[i]) + "\"";
  gates += "]";
  std::string failures = "[";
  for (size_t i = 0; i < out.gate_failures.size(); ++i)
    failures += (i ? ", \"" : "\"") + json_escape(out.gate_failures[i]) + "\"";
  failures += "]";

  std::printf("{\"report\": {\"config\": %s, \"end_to_end\": %s, "
              "\"workload_metrics\": %s, \"gates_run\": %s, "
              "\"gate_failures\": %s}}\n",
              cfg.c_str(), metrics_json(out.e2e).c_str(),
              metrics_json(out.detail).c_str(), gates.c_str(),
              failures.c_str());

  const bool correct = out.gate_failures.empty() && out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(o.trace ? out.layer : out.e2e).c_str());
  std::fflush(stdout);
  if (!out.gate_failures.empty()) {
    for (const auto& g : out.gate_failures)
      std::fprintf(stderr,
                   "perfbench: workload %s seed %llu: gate failed: %s\n",
                   o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                   g.c_str());
    return 1;
  }
  return 0;
}
