// Deterministic load replay (enw::serve) — the determinism seam.
//
// Live batch boundaries depend on thread scheduling, so they cannot anchor a
// bitwise test. replay_trace() removes the scheduler from the picture: it is
// a single-threaded discrete-event simulation of the serving pipeline over a
// scripted arrival trace in VIRTUAL time. Admission (bounded queue, tenant
// quota, block/reject), batching (the same flush_due policy the live
// collator runs), deadline shedding (the same deadline_expired predicate),
// and typed faults are all replayed as pure functions of the trace and
// config — so the same seeded trace always produces the same batch
// boundaries, the same typed outcome per request, and (because the batched
// GEMM paths compute each output row as an independent k-order dot product)
// outputs that are bitwise-identical to running the offline predict_batch
// reference over the whole trace at once. tests/test_serve.cpp pins all
// three with testkit differential checks across ENW_THREADS {1, 8}.
//
// Virtual-time semantics (all deterministic, documented here because tests
// diff the boundary log byte-for-byte):
//  * Requests are processed in trace order; arrivals must be non-decreasing.
//  * One executor: a flush occupies it for cfg.service_ns of virtual time;
//    triggers that fire while it is busy flush when it frees. A batch
//    completes at flush + service_ns.
//  * Tenant quota, held to completion as MultiShardServer's gate holds it:
//    a request holds one of its tenant's slots from admission until its
//    terminal status. A shed request frees it at its flush; an executed or
//    failed one at flush + service_ns. An empty tenant table is the plain
//    Server: the queue bound alone, no quota.
//  * A blocked arrival (kBlock, no queue space or tenant at quota) waits
//    FIFO and is re-examined at every flush and every completion; its
//    batching window starts when it is admitted.
//  * Tie rule: a completion at t frees its slots and admits blocked
//    arrivals before arrivals stamped t and before the flush at t; an
//    arrival stamped at or before a pending flush instant is admitted
//    before the flush decision is evaluated.
//  * Typed faults, as Server::run_batch types them: an exception thrown by
//    the exec callback resolves every request of that batch kError (the
//    executor is still occupied for the service interval) and the replay
//    continues.
//  * Replay never drains: after the last arrival the remaining queue still
//    flushes by its size/window triggers, so end-of-trace does not distort
//    window or deadline behaviour. Shutdown belongs to the live Server and is
//    tested there; replay_sharded drains only a shard a scripted kRemove
//    retires.
//  * One difference from the live gate remains: a live kBlock request that
//    passed its tenant gate holds its slot while it waits for shared-queue
//    space, and a replayed one does not (it holds a slot only once queued).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/rng.h"
#include "serve/serve.h"
#include "serve/shard.h"

namespace enw::serve {

/// One scripted request arrival. Timestamps are virtual nanoseconds. The
/// tenant and routing-key fields are appended so single-tenant traces keep
/// their two-field aggregate initializers: a default event belongs to
/// tenant 0 and routes by key 0.
struct TraceEvent {
  std::uint64_t arrival_ns = 0;
  std::uint64_t deadline_ns = 0;  // absolute virtual deadline; 0 = none
  std::uint64_t key = 0;          // routing key (replay_sharded)
  std::uint32_t tenant = 0;       // index into ReplayConfig::tenants
};

/// One scripted backend swap at a virtual instant (the replay twin of
/// Server::swap_backend). A swap takes effect at the first flush whose
/// instant is >= at_ns: every batch flushed strictly before runs on the
/// prior version, every batch at/after runs on `version` — a batch executes
/// entirely on one version by construction, which is exactly the atomicity
/// the live server promises and what the boundary log lets tests pin
/// byte-for-byte.
struct SwapEvent {
  std::uint64_t at_ns = 0;
  std::uint64_t version = 0;
};

struct ReplayConfig {
  ServeConfig serve;
  /// Virtual executor occupancy per flushed batch. Models the serving-side
  /// head-of-line blocking that lets queues build while a batch runs.
  std::uint64_t service_ns = 0;
  /// Tenant SLO table, indexed by TraceEvent::tenant. Empty means the plain
  /// Server: one tenant with serve.admission, no deadline, and no quota. A
  /// non-empty table applies each tenant's admission mode, its queue-share
  /// quota held to completion (the tenant_quota arithmetic of the live
  /// MultiShardServer gate) and, for events with deadline_ns == 0, its
  /// relative deadline.
  std::vector<TenantPolicy> tenants;
  /// Scripted hot-swaps, non-decreasing in at_ns. Version 0 is the initial
  /// backend. Swaps activate lazily at flush instants (see SwapEvent); a
  /// swap scripted after the last flush never activates and is not recorded.
  std::vector<SwapEvent> swaps;
};

/// One simulated flush, in flush order.
struct BatchRecord {
  std::uint64_t flush_ns = 0;
  FlushReason reason = FlushReason::kWindow;
  std::vector<std::size_t> executed;  // request ids, collation order
  std::vector<std::size_t> shed;      // request ids shed at this flush
  std::uint64_t version = 0;          // backend version this batch ran on
};

/// Terminal outcome of one replayed request (indexed by trace position).
struct RequestOutcome {
  Status status = Status::kError;
  std::uint64_t done_ns = 0;     // virtual completion / rejection / shed time
  std::uint64_t latency_ns = 0;  // done_ns - arrival_ns (0 for rejects)
};

/// A swap that actually activated during the replay: the boundary between
/// the last batch on the prior version and the first batch on `version`.
struct SwapBoundary {
  std::uint64_t at_ns = 0;       // scripted instant (SwapEvent::at_ns)
  std::uint64_t version = 0;     // version installed
  std::size_t first_batch = 0;   // index of the first batch on `version`
};

struct ReplayResult {
  std::vector<RequestOutcome> outcomes;  // one per trace event
  std::vector<BatchRecord> batches;
  ServerStats stats;
  /// Per-tenant slice of stats (submitted/completed/rejected/shed/errors;
  /// batch fields stay zero — batches are shared). One entry per resolved
  /// tenant, so a single default entry when ReplayConfig::tenants is empty.
  std::vector<ServerStats> tenant_stats;
  /// Activated swaps in activation order (scripted swaps past the last
  /// flush never activate and do not appear).
  std::vector<SwapBoundary> swaps;

  /// Canonical one-line-per-batch rendering, e.g.
  /// "batch 0: t=0ns reason=size n=3 ids=[0,1,2] shed=[] v=0". Every batch
  /// line ends in its backend version, and a "swap: t=<t>ns v=<version>
  /// first_batch=<b>" line precedes the first batch of each activated swap.
  /// Tests diff this string to pin boundaries.
  std::string boundary_log() const;
};

/// Executes the surviving requests of one batch on backend `version`; ids
/// index into the trace. The caller owns request payloads and output
/// storage — replay only decides WHICH requests run together, WHEN, and on
/// which version. A throw resolves the whole batch kError (see above).
using ReplayExec =
    std::function<void(std::span<const std::size_t> ids, std::uint64_t version)>;

/// Run the full simulation. Requires trace arrivals to be non-decreasing
/// (and cfg.swaps non-decreasing in at_ns).
ReplayResult replay_trace(std::span<const TraceEvent> trace,
                          const ReplayConfig& cfg, const ReplayExec& exec);

/// Exponential inter-arrival gap from one uniform draw u in [0, 1):
/// -mean_gap_ns * ln(1 - u), guarded at both tails. u == 1.0 (which some
/// uniform_real_distribution implementations CAN return despite the
/// half-open contract) would give ln(0) = -inf, and casting the resulting
/// +inf gap to uint64_t is undefined behaviour — so 1 - u is clamped to
/// DBL_MIN (normal draws are unchanged: existing seeded traces stay
/// bitwise-identical) and the gap is capped below 2^63 before the cast.
std::uint64_t poisson_gap_ns(double mean_gap_ns, double u);

/// Seeded open-loop arrival trace: exponential (Poisson-process) gaps with
/// the given mean, each request carrying an absolute deadline of
/// arrival + relative_deadline_ns (0 = no deadline). Deterministic in rng.
std::vector<TraceEvent> poisson_trace(std::size_t n, double mean_gap_ns,
                                      std::uint64_t relative_deadline_ns,
                                      Rng& rng);

/// Completed-request latencies of one tenant, in trace order — the sample
/// the per-tenant p50/p99 rows are computed from (percentile_ns).
std::vector<std::uint64_t> tenant_latencies(const ReplayResult& result,
                                            std::span<const TraceEvent> trace,
                                            std::uint32_t tenant);

}  // namespace enw::serve
