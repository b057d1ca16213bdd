// perfbench — the repo benchmark: the paper's two served workloads (the
// Sec. II MLP and the Sec. V DLRM) driven through the library's public
// serving, model and artifact APIs, with every reply checked against an
// offline reference. NOTES.md explains the workloads and metrics.
//
// A run has two halves that run in separate processes, so the measured
// process's peak RSS covers only what a deployment would hold:
//   prepare  seeded model -> artifact file, seeded input pool, and the
//            offline reference output of every pool entry -> pool file;
//   run      set-up (artifact load, server start, warm-up; repeated and the
//            median reported), then a closed-loop measured phase. A traced
//            run additionally stamps every batch and replays recorded
//            batches through each layer's own calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "recsys/dlrm.h"
#include "serve/serve.h"

namespace perfbench {

enum class Workload {
  kMlpWindow,      // serve::Server, 784-256-10 MLP, default ServeConfig
  kDlrmFullbatch,  // serve::MultiShardServer, 1 shard, 2 tenants, max_batch 4
  kMlpOffline,     // Mlp::infer_batch on 64-sample batches, no server
};

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Everything a run depends on besides the seed's random streams.
/// default_spec() is the benchmark; tests shrink the shapes and times.
struct Spec {
  Workload workload = Workload::kMlpWindow;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured phase
  bool trace = false;

  std::vector<std::size_t> mlp_dims = {784, 256, 10};
  enw::recsys::DlrmConfig dlrm = enw::recsys::DlrmConfig::memory_dominated();

  std::size_t pool = 1024;        // prepared inputs, cycled by the clients
  std::size_t clients = 4;        // closed-loop client threads (serving)
  std::size_t offline_batch = 64;  // samples per infer_batch call (offline)
  enw::serve::ServeConfig serve;  // per-shard config (serving)

  std::size_t setup_repeats = 3;  // set-ups per run; setup_s is their median
  std::size_t warmup = 16;        // requests per client / offline calls
  std::size_t slices = 20;        // report only: throughput per equal slice
  std::size_t replay_batches = 256;  // traced run: batches replayed per layer
};

Spec default_spec(Workload w, std::uint64_t seed);

/// Build the seeded model, write it to `dir`/model.enw, generate the input
/// pool, compute the offline reference output of every input from the
/// artifact, and write inputs + references to `dir`/pool.bin.
void prepare(const Spec& spec, const std::string& dir);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;  // requests (offline: samples) sent
  std::uint64_t failed = 0;     // not kOk, or not bitwise equal to reference
  /// End-to-end metrics for an untraced run, per-layer metrics for a traced
  /// one; in the order of BENCHMARK.json.
  std::vector<Metric> metrics;
};

/// Set up, measure and check one workload from the files prepare() wrote.
/// Human-readable report lines go to stdout as the run proceeds.
Result run(const Spec& spec, const std::string& dir);

// -- pieces the tests check directly ----------------------------------------

/// The four client/wrapper timestamps of one served request.
struct Stamps {
  std::uint64_t submit_ns = 0;       // client: submit() entry
  std::uint64_t batch_start_ns = 0;  // wrapper BatchFn entry
  std::uint64_t batch_end_ns = 0;    // wrapper BatchFn return
  std::uint64_t return_ns = 0;       // client: submit() returned
};

/// A request's latency split into serve wait (gate, admission, queue,
/// window, collation), execution, and wake-up. wait + exec + wake equals
/// return_ns - submit_ns exactly.
struct Stages {
  std::uint64_t wait_ns = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t wake_ns = 0;
};
Stages split_stages(const Stamps& s);

/// The served == offline oracle: same length and identical bits.
bool bitwise_equal(std::span<const float> a, std::span<const float> b);

/// One timed request (offline: one call) of the measured phase.
struct Event {
  std::uint64_t end_ns = 0;
  std::uint64_t latency_ns = 0;
};

/// The end-to-end timing metrics of the measured phase [t0, t1), over the
/// events that end in it, each `weight` samples: samples_per_s is their
/// samples over t1 - t0, and p50/p90 are nearest-rank percentiles of all
/// their latencies, so a stall anywhere in the phase counts.
/// slice_rates is the same rate for each of `slices` equal parts of the
/// phase, by where an event ends: a report diagnostic, not a metric.
struct Summary {
  double samples_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::vector<double> slice_rates;
};
Summary summarize(std::span<const Event> events, std::uint64_t t0, std::uint64_t t1,
                  std::size_t slices, double weight);

/// Bytes of the resident pages under a buffer. The measured phase's record
/// buffers are the benchmark's own and grow with the request rate; run()
/// takes their pages out of the peak resident set it reports.
std::size_t resident_bytes(const void* data, std::size_t bytes);

/// Names and units of the metrics run() reports, in order.
std::vector<Metric> end_to_end_names();
std::vector<Metric> per_layer_names();

}  // namespace perfbench
