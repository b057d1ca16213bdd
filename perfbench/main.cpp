// perfbench command line.
//
//   perfbench prepare --workload W --seed N --dir D
//   perfbench run     --workload W --seed N --seconds S --trace 0|1 --dir D
//
// `run` prints a human-readable report, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary and calls both commands.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare --workload W --seed N --dir D\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --dir D\n"
               "workloads: mlp_window dlrm_fullbatch mlp_offline\n");
  return 2;
}

void print_json(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.failed == 0 && r.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string workload, dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--dir") {
      dir = val;
    } else {
      return usage();
    }
  }
  const auto w = perfbench::parse_workload(workload);
  if (!w || dir.empty() || (argc % 2) != 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1) || (cmd != "prepare" && cmd != "run")) {
    return usage();
  }

  perfbench::Spec spec = perfbench::default_spec(*w, seed);
  spec.seconds = seconds;
  spec.trace = trace == 1;
  try {
    if (cmd == "prepare") {
      perfbench::prepare(spec, dir);
      return 0;
    }
    const perfbench::Result r = perfbench::run(spec, dir);
    for (const perfbench::Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
        return 1;
      }
    }
    print_json(r);
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
