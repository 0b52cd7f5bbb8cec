// Shared benchmark harness: workload generation, timing, and paper-style
// table/series output.
//
// Every binary runs standalone with defaults sized for small CI machines
// (the series *shape* across filter sizes is what reproduces the paper's
// figures; absolute throughput is hardware-bound).  Flags:
//   --full     paper-scale sweep (larger filters, more sizes)
//   --sizes    comma-separated log2 filter sizes (e.g. --sizes 16,18,20)
//   --csv      machine-readable output rows
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/timer.h"
#include "util/xorwow.h"

namespace gf::bench {

/// Global CSV switch (set by options::parse from --csv): series printers
/// emit comma-separated rows instead of aligned columns.
inline bool& csv_mode() {
  static bool mode = false;
  return mode;
}

struct options {
  std::vector<int> log_sizes{16, 18, 20};
  bool csv = false;
  bool full = false;

  static options parse(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--full")) {
        o.full = true;
        o.log_sizes = {16, 18, 20, 22, 24};
      } else if (!std::strcmp(argv[i], "--csv")) {
        o.csv = true;
        csv_mode() = true;
      } else if (!std::strcmp(argv[i], "--sizes") && i + 1 < argc) {
        o.log_sizes.clear();
        std::string arg = argv[++i];
        size_t pos = 0;
        while (pos < arg.size()) {
          size_t comma = arg.find(',', pos);
          if (comma == std::string::npos) comma = arg.size();
          o.log_sizes.push_back(std::stoi(arg.substr(pos, comma - pos)));
          pos = comma + 1;
        }
      }
    }
    return o;
  }
};

/// Time a callable; returns Mops/s for `ops` operations.
template <class Fn>
double time_mops(uint64_t ops, Fn&& fn) {
  util::wall_timer timer;
  fn();
  return util::mops(ops, timer.seconds());
}

/// Best-of-N timing for idempotent (read-only) operations: suppresses
/// scheduler noise on small hosts.
template <class Fn>
double best_mops(int reps, uint64_t ops, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) best = std::max(best, time_mops(ops, fn));
  return best;
}

inline void print_banner(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("(throughput in Mops/s on this host; the paper reports B/s on\n");
  std::printf(" V100/A100 — compare series shape and ratios, not absolutes)\n");
  std::printf("==============================================================\n");
}

/// `row_label` names what the rows are (log2 filter size unless a bench
/// sweeps something else).
inline void print_series_header(const char* metric,
                                const std::vector<std::string>& filters,
                                const char* row_label = "log2size") {
  if (csv_mode()) {
    std::printf("\nmetric,%s\n%s", metric, row_label);
    for (const auto& f : filters) std::printf(",%s", f.c_str());
    std::printf("\n");
    return;
  }
  std::printf("\n-- %s --\n%-10s", metric, row_label);
  for (const auto& f : filters) std::printf("%12s", f.c_str());
  std::printf("\n");
}

inline void print_series_row(const std::string& row,
                             const std::vector<double>& vals) {
  if (csv_mode()) {
    std::printf("%s", row.c_str());
    for (double v : vals) {
      if (v < 0)
        std::printf(",");
      else
        std::printf(",%.2f", v);
    }
    std::printf("\n");
    return;
  }
  std::printf("%-10s", row.c_str());
  for (double v : vals) {
    if (v < 0)
      std::printf("%12s", "-");
    else
      std::printf("%12.1f", v);
  }
  std::printf("\n");
}

inline void print_series_row(int log_size, const std::vector<double>& vals) {
  print_series_row(std::to_string(log_size), vals);
}

}  // namespace gf::bench
