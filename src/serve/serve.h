// enw::serve — concurrent inference serving with dynamic micro-batching.
//
// The paper's recommendation and MANN workloads are datacenter *serving*
// workloads: requests arrive one at a time from many clients, but the
// hardware earns its throughput only when samples are executed as batches
// (the GEMM paths of src/nn, src/recsys, src/mann). The defining constraint
// (Jouppi et al., TPU in-datacenter study) is batching under a tail-latency
// deadline: wait too long for a full batch and p99 explodes, flush too
// eagerly and throughput collapses. This subsystem models that trade-off:
//
//   * dynamic micro-batching — admitted requests coalesce until the batch
//     reaches max_batch (size trigger) or the OLDEST queued request has
//     waited max_wait_ns (window trigger), whichever comes first;
//   * backpressure — the admission queue is bounded; a full queue either
//     rejects (typed Status::kRejected) or blocks the submitter;
//   * deadlines — a request whose absolute deadline has passed by the time
//     its batch is collated is shed with Status::kTimedOut, never executed
//     and never handed a stale result;
//   * clean shutdown — shutdown() stops admissions (late submitters get
//     Status::kShutdown) and drains every admitted request before returning.
//
// Determinism seam: batch collation order under real threads is
// scheduling-dependent, so the *live* Server (server.h) makes no
// reproducibility promise about boundaries — only about values (each GEMM
// output row is an independent k-order dot product, so a request's result
// is bitwise-identical whatever batch it lands in). Reproducible boundaries
// come from the replay harness (replay.h), which drives the SAME flush_due
// policy below with a virtual clock over a scripted arrival trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace enw::serve {

/// Terminal outcome of one request. Every submitted request gets exactly one.
enum class Status {
  kOk,        // executed; the reply value is valid
  kRejected,  // admission queue full under AdmissionPolicy::kReject
  kTimedOut,  // deadline passed before execution; shed without executing
  kShutdown,  // submitted after shutdown began (never admitted)
  kError,     // backend threw mid-batch; no result exists for this request
};
const char* status_name(Status s);

/// What submit() does when the admission queue is full.
enum class AdmissionPolicy {
  kBlock,   // wait for space (or shutdown)
  kReject,  // fail fast with Status::kRejected
};

struct ServeConfig {
  std::size_t max_batch = 32;           // size trigger: flush at this many
  std::uint64_t max_wait_ns = 1000000;  // window trigger: oldest waits 1 ms
  std::size_t queue_capacity = 1024;    // bounded admission queue
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
};

/// Why a batch flushed.
enum class FlushReason {
  kSize,    // queue reached max_batch
  kWindow,  // oldest request waited max_wait_ns
  kDrain,   // shutdown (live) / a shard retired by a scripted kRemove
            // (replay_sharded): flush whatever queued
};
const char* flush_reason_name(FlushReason r);

/// Outcome of one flush-policy evaluation.
struct FlushDecision {
  bool due = false;
  FlushReason reason = FlushReason::kWindow;  // valid when due
  std::uint64_t wake_ns = 0;  // when the window trigger fires (when !due and
                              // the queue is non-empty)
};

/// The batching policy, as a pure function of observable state — THE shared
/// seam between the live Server and the deterministic replay simulator. Both
/// modes produce a batch boundary exactly when this function says one is due;
/// replay feeding it virtual timestamps therefore reproduces the boundaries
/// the live collator would produce under those arrival times.
FlushDecision flush_due(std::uint64_t now_ns, std::uint64_t oldest_enqueue_ns,
                        std::size_t queued, bool draining,
                        const ServeConfig& cfg);

/// Shed predicate shared by both modes: a deadline of 0 means "none", and a
/// request is shed only when the batch is collated strictly AFTER it.
inline bool deadline_expired(std::uint64_t deadline_ns, std::uint64_t now_ns) {
  return deadline_ns != 0 && now_ns > deadline_ns;
}

/// Monotonic serving counters plus the batch-size histogram. The live Server
/// snapshots these under its lock; the replay harness fills one per run.
struct ServerStats {
  std::uint64_t submitted = 0;   // submit() calls that passed the shutdown gate
  std::uint64_t completed = 0;   // requests that executed (Status::kOk)
  std::uint64_t rejected = 0;    // Status::kRejected
  std::uint64_t shed = 0;        // Status::kTimedOut
  std::uint64_t errors = 0;      // Status::kError
  std::uint64_t batches = 0;     // flushes that executed at least one request
  std::uint64_t executed_requests = 0;  // sum of executed batch sizes
  std::size_t queue_peak = 0;    // high-water mark of the admission queue
  /// batch_size_hist[i] counts executed batches of size in [2^i, 2^(i+1)).
  std::vector<std::uint64_t> batch_size_hist;

  /// Record one executed batch of `size` requests (size > 0).
  void record_batch(std::size_t size);
  /// Fold another stats block into this one: counters sum, histogram
  /// buckets align and sum, queue_peak takes the max. This is how the
  /// sharded layers (multi_shard.h, shard_replay.h) aggregate per-shard and
  /// per-tenant stats into one view.
  void merge(const ServerStats& other);
  /// Mean executed batch size (0 when no batch ran).
  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(executed_requests) /
                              static_cast<double>(batches);
  }
};

/// One hot-swap of a server's backend (see Server::swap_backend). The
/// counters snapshot the server's stats at the swap instant, so consecutive
/// records delimit how many batches/requests each version served. A batch
/// already collated (in flight) at the swap instant still completes on the
/// OLD version — it is not counted in `batches_before`, which records
/// *recorded* batches; exact boundary accounting is the replay harness's job.
struct SwapRecord {
  std::uint64_t version = 0;          // version being swapped IN
  std::uint64_t swap_ns = 0;          // monotonic_now_ns() at the swap
  std::uint64_t batches_before = 0;   // batches recorded before the swap
  std::uint64_t requests_before = 0;  // executed requests recorded before
};

/// Nearest-rank percentile (p in [0, 100]) of a latency sample; 0 if empty.
/// Takes the sample by value — it sorts its copy. Callers that need several
/// percentiles of one sample should sort once and use percentile_sorted_ns.
std::uint64_t percentile_ns(std::vector<std::uint64_t> sample, double p);

/// Nearest-rank percentile of an ALREADY ASCENDING-SORTED sample; 0 if
/// empty. percentile_ns delegates here, so the two are result-identical by
/// construction; the point of the overload is paying for the sort once when
/// reporting p50 + p99 (+ ...) of the same sample.
std::uint64_t percentile_sorted_ns(std::span<const std::uint64_t> sorted, double p);

/// Monotonic wall clock for the live serving path (steady_clock, ns).
std::uint64_t monotonic_now_ns();

}  // namespace enw::serve
