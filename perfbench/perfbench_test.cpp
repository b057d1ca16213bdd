// Tests for the benchmark's own code: stage accounting, the reply oracle,
// the whole-phase summary, the peak-RSS correction, and the metric set
// across seeds. Runs every workload on shrunken shapes for a fraction of a
// second.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "perfbench.h"

namespace {

using perfbench::Metric;
using perfbench::Spec;
using perfbench::Workload;

Spec small_spec(Workload w, std::uint64_t seed, bool trace) {
  Spec s = perfbench::default_spec(w, seed);
  s.trace = trace;
  s.seconds = 0.2;
  s.mlp_dims = {784, 32, 10};
  s.dlrm.num_tables = 4;
  s.dlrm.rows_per_table = 2000;
  s.pool = 256;
  s.setup_repeats = 2;
  s.warmup = 4;
  s.slices = 4;
  s.replay_batches = 16;
  return s;
}

/// prepare + run in a scratch directory under the working directory.
perfbench::Result run_small(const Spec& spec) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "perfbench_test_run";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  perfbench::prepare(spec, dir.string());
  perfbench::Result r = perfbench::run(spec, dir.string());
  std::filesystem::remove_all(dir);
  return r;
}

std::vector<std::string> names(const std::vector<Metric>& m) {
  std::vector<std::string> out;
  for (const Metric& x : m) out.push_back(x.name);
  return out;
}

std::map<std::string, double> values(const std::vector<Metric>& m) {
  std::map<std::string, double> out;
  for (const Metric& x : m) out[x.name] = x.value;
  return out;
}

TEST(Stages, AddUpToLatency) {
  const perfbench::Stamps s{1000, 1750, 1900, 2013};
  const perfbench::Stages st = perfbench::split_stages(s);
  EXPECT_EQ(st.wait_ns, 750u);
  EXPECT_EQ(st.exec_ns, 150u);
  EXPECT_EQ(st.wake_ns, 113u);
  EXPECT_EQ(st.wait_ns + st.exec_ns + st.wake_ns, s.return_ns - s.submit_ns);
}

TEST(Stages, SharesOfTracedServingRunsSumToOne) {
  for (Workload w : {Workload::kMlpWindow, Workload::kDlrmFullbatch}) {
    const perfbench::Result r = run_small(small_spec(w, 1, true));
    auto v = values(r.metrics);
    for (const char* share : {"serve.wait_share", "serve.exec_share", "serve.wake_share"}) {
      EXPECT_GE(v[share], 0.0) << share;
      EXPECT_LE(v[share], 1.0) << share;
    }
    EXPECT_NEAR(v["serve.wait_share"] + v["serve.exec_share"] + v["serve.wake_share"],
                1.0, 1e-9)
        << perfbench::workload_name(w);
    EXPECT_GT(v["serve.mean_batch"], 0.0);
  }
}

TEST(Oracle, OneUlpOffIsAFailure) {
  const std::vector<float> ref = {0.25f, -1.5f, 3.0e-8f, 7.0f};
  std::vector<float> reply = ref;
  EXPECT_TRUE(perfbench::bitwise_equal(reply, ref));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    reply = ref;
    reply[i] = std::nextafter(ref[i], std::numeric_limits<float>::infinity());
    EXPECT_FALSE(perfbench::bitwise_equal(reply, ref)) << i;
  }
  const std::vector<float> pos0 = {0.0f};
  const std::vector<float> neg0 = {-0.0f};
  EXPECT_FALSE(perfbench::bitwise_equal(pos0, neg0));
  EXPECT_FALSE(perfbench::bitwise_equal(std::vector<float>{0.25f}, ref));
}

TEST(Summary, AStallInOneSliceMovesTheWholePhase) {
  // A request ends every 1 ms over [0, 1 s), each taking 0.5 ms, except that
  // the second of four slices stalls: half as many completions, each taking
  // 40 ms. The stall is 125 of 875 requests, so it moves throughput and p90.
  std::vector<perfbench::Event> ev;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t end = i * 1'000'000;
    const bool stalled = end >= 250'000'000 && end < 500'000'000;
    if (stalled && i % 2 != 0) continue;
    ev.push_back({end, stalled ? 40'000'000u : 500'000u});
  }
  ev.push_back({1'000'000'000, 500'000});  // ends at t1: outside the phase
  const perfbench::Summary s = perfbench::summarize(ev, 0, 1'000'000'000, 4, 64.0);
  EXPECT_NEAR(s.samples_per_s, 64.0 * 875, 1e-6);
  EXPECT_DOUBLE_EQ(s.p50_ms, 0.5);
  EXPECT_DOUBLE_EQ(s.p90_ms, 40.0);
  ASSERT_EQ(s.slice_rates.size(), 4u);
  EXPECT_NEAR(s.slice_rates[0], 64.0 * 250 / 0.25, 1e-6);
  EXPECT_NEAR(s.slice_rates[1], 64.0 * 125 / 0.25, 1e-6);
}

TEST(PeakRss, ResidentBytesCountOnlyFilledPages) {
  // Like a measured phase's record buffer: reserved far ahead, then filled
  // by appending. Only the pages under the filled elements are resident.
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<double> buf;
  buf.reserve(std::size_t{8} << 20);  // 64 MiB: a fresh mapping of its own
  EXPECT_LE(perfbench::resident_bytes(buf.data(), buf.capacity() * sizeof(double)), page);
  buf.assign(100'000, 1.0);
  const std::size_t resident =
      perfbench::resident_bytes(buf.data(), buf.capacity() * sizeof(double));
  EXPECT_GE(resident, 100'000 * sizeof(double));
  EXPECT_LE(resident, 100'000 * sizeof(double) + 2 * page);
}

TEST(Metrics, SecondSeedGivesSameNamesAndNoFailures) {
  for (Workload w : {Workload::kMlpWindow, Workload::kDlrmFullbatch, Workload::kMlpOffline}) {
    for (bool trace : {false, true}) {
      const auto expected =
          names(trace ? perfbench::per_layer_names() : perfbench::end_to_end_names());
      for (std::uint64_t seed : {1u, 2u}) {
        const perfbench::Result r = run_small(small_spec(w, seed, trace));
        SCOPED_TRACE(std::string(perfbench::workload_name(w)) + " seed " +
                     std::to_string(seed) + (trace ? " traced" : ""));
        EXPECT_EQ(names(r.metrics), expected);
        EXPECT_GT(r.attempted, 0u);
        EXPECT_EQ(r.failed, 0u);
        for (const Metric& m : r.metrics) EXPECT_TRUE(std::isfinite(m.value)) << m.name;
        if (!trace) {
          EXPECT_EQ(values(r.metrics)["ok_share"], 1.0);
        }
      }
    }
  }
}

}  // namespace
