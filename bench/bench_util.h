// Shared formatting/timing helpers for the experiment benchmark binaries.
//
// Every binary prints (a) the experiment id and the paper's reported
// numbers, (b) the regenerated table/series, and (c) the technology
// constants it used, so EXPERIMENTS.md can be cross-checked against raw
// output.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/cpu_features.h"
#include "obs/obs.h"

namespace enw::bench {

/// Machine identity for BENCH_*.json records: the CPU's vector features and
/// the kernel backend the run actually resolved to. Perf numbers from two
/// machines (or two ENW_BACKEND settings) are only comparable when the
/// record says what executed — an avx512 row and a scalar row must never be
/// diffed as a regression.
///
/// NOTE: resolving the backend requires linking enw_tensor (where the
/// registry lives); only the JSON-emitting harnesses call these.
struct MachineInfo {
  std::string cpu_features;  // "avx2=1 fma=1 avx512f=1 avx512bw=1"
  std::string backend;       // "reference" | "simd"
  std::string backend_isa;   // "scalar" | "avx2" | "avx512"
};

inline MachineInfo machine_info() {
  MachineInfo info;
  info.cpu_features = core::cpu_feature_summary();
  const core::KernelBackend& b = core::backend();
  info.backend = b.name();
  info.backend_isa = b.isa();
  return info;
}

/// The machine fields as JSON object members (no surrounding braces), for
/// the hand-rolled emitters (bench_batch, bench_serve). `indent` is the
/// leading whitespace of each line; the fragment ends with ",\n" so it can
/// be prepended to an existing member list.
inline std::string machine_json_fields(const std::string& indent) {
  const MachineInfo info = machine_info();
  return indent + "\"cpu_features\": \"" + info.cpu_features + "\",\n" +
         indent + "\"kernel_backend\": \"" + info.backend + "\",\n" +
         indent + "\"kernel_backend_isa\": \"" + info.backend_isa + "\",\n";
}

inline void header(const std::string& id, const std::string& title,
                   const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

  void row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  void print() const {
    std::vector<std::size_t> width(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& r) {
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        const std::string& cell = c < r.size() ? r[c] : std::string();
        std::printf("| %-*s ", static_cast<int>(width[c]), cell.c_str());
      }
      std::printf("|\n");
    };
    print_row(columns_);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      std::printf("|%s", std::string(width[c] + 2, '-').c_str());
    }
    std::printf("|\n");
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt_sci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

inline std::string pct(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", prec, v * 100.0);
  return buf;
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Write the accumulated obs trace to TRACE_<bench_id>.json (or to
/// $ENW_PROF_OUT when set) and announce it on stderr. No-op unless
/// profiling was enabled (ENW_PROF=1), so benchmark stdout — which some
/// harnesses byte-diff for reproducibility — never changes shape.
inline void export_trace(const std::string& bench_id) {
  if (!obs::enabled()) return;
  const char* override_path = std::getenv("ENW_PROF_OUT");
  const std::string path =
      override_path != nullptr ? override_path : "TRACE_" + bench_id + ".json";
  const obs::TraceReport report = obs::snapshot();
  obs::write_json(report, path);
  std::fprintf(stderr, "[obs] wrote trace: %s (%llu ns in %zu root spans)\n",
               path.c_str(),
               static_cast<unsigned long long>(report.total_ns()),
               report.roots.size());
}

}  // namespace enw::bench
