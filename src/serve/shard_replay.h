// Deterministic sharded load replay — the cross-shard determinism seam.
//
// replay_sharded() extends the single-server virtual-time simulation
// (replay.h) to the sharded deployment (shard.h / multi_shard.h): the trace
// is split by a ShardRouter into per-shard sub-traces (arrival order is
// preserved, so each sub-trace stays non-decreasing), and every shard runs
// its own independent replay_trace over its slice — its own queue, flush
// policy, virtual executor, and tenant quotas. Shards share no virtual
// state, exactly like the live deployment where each shard has its own
// collator; cross-shard interleaving therefore cannot affect boundaries.
//
// Tenants: every shard runs the table MultiShardServer would run. An empty
// ReplayConfig::tenants resolves (resolve_tenants, as MultiShardServer does)
// to one full-share default tenant whose quota is held to completion, so the
// sharded replay models the live sharded gate, not the plain Server.
//
// Scripted resizes (ShardedReplayConfig::resizes) make the shard set itself
// a virtual-time variable — the replay twin of the live
// MultiShardServer::add_shard / remove_shard. The router is applied to the
// trace in arrival order; a resize activates when the first arrival at or
// after its at_ns is routed, so the routing decision for every request is a
// pure function of (trace, config): arrivals before the instant route on
// the old ring, arrivals at/after on the new one (the replay analogue of
// the live reroute-to-new). A removed shard's sub-replay drains from the
// resize instant, flushing its already-queued requests to typed outcomes
// (the analogue of complete-on-old). Activated resizes are recorded as
// ResizeBoundary rows with the remapped-arrival count — the ~K/(N+1)
// consistent-hashing delta, observable in the log.
//
// Everything reported — the per-shard boundary log (global request ids),
// every typed outcome, routed counts and the imbalance statistic, merged
// and per-tenant stats, swap and resize boundaries — is a pure function of
// (trace, config, shard count): bitwise/byte identical across runs, thread
// counts, and kernel backends. With num_shards == 1 and no resizes the
// sub-trace IS the trace, so the sharded harness reduces to replay_trace
// over the resolved tenant table: its boundary_log is that plain log under
// one "shard 0:" header. tests/test_determinism.cpp and
// tests/test_resize.cpp pin these properties over DLRM Zipf traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "serve/replay.h"
#include "serve/shard.h"

namespace enw::serve {

/// One scripted shard-set change at a virtual instant (the replay twin of
/// MultiShardServer::add_shard / remove_shard), applied to the routing ring
/// when the first arrival at or after at_ns is routed — every arrival
/// stamped >= at_ns sees the post-resize ring, everything earlier the
/// pre-resize one. On a kRemove the victim shard's sub-replay drains from
/// at_ns, so its already-queued requests flush to typed outcomes instead of
/// lingering — the replay abstraction of the live drain/reroute. A resize
/// scripted after the last arrival never activates and is not recorded
/// (the swap pattern).
struct ResizeEvent {
  enum class Kind { kAdd, kRemove };
  std::uint64_t at_ns = 0;
  Kind kind = Kind::kAdd;
  /// kAdd: the id the router must assign when the event activates (ids are
  /// sequential and never reused — checked at activation). kRemove: the id
  /// retired.
  std::size_t shard = 0;
};

struct ShardedReplayConfig {
  /// Every shard's replay config (queue, flush policy, tenants).
  /// replay.swaps script a COORDINATED rollout: every shard activates each
  /// swap at the same virtual instant, the replay twin of
  /// MultiShardServer::swap_backend installing one version fleet-wide.
  ReplayConfig replay;
  std::size_t num_shards = 1;
  std::size_t vnodes = 64;  // router ring density (must match deployment)
  /// Scripted shard-set changes, non-decreasing in at_ns (see ResizeEvent).
  std::vector<ResizeEvent> resizes;
};

/// Executes the surviving requests of one batch on `shard` and backend
/// `version`; ids are GLOBAL trace indices (the caller's payload storage
/// needs no per-shard view). A throw resolves the batch kError, as in
/// replay_trace.
using ShardedReplayExec = std::function<void(
    std::size_t shard, std::span<const std::size_t> ids, std::uint64_t version)>;

/// A scripted resize that actually activated during the replay (an event
/// stamped after the last arrival never activates and is not recorded).
struct ResizeBoundary {
  std::uint64_t at_ns = 0;   // scripted instant (ResizeEvent::at_ns)
  bool added = false;        // true: shard added, false: shard removed
  std::size_t shard = 0;     // id added or retired
  std::size_t moved = 0;     // remaining arrivals whose owner changed
};

struct ShardedReplayResult {
  std::vector<RequestOutcome> outcomes;  // one per trace event (global)
  std::vector<std::size_t> shard_of;     // routing decision per trace event
  std::vector<ReplayResult> shards;      // per-shard-slot results (LOCAL ids)
  std::vector<std::vector<std::size_t>> shard_ids;  // local id -> global id
  /// Liveness per shard slot at end of replay (0 = retired / never grew a
  /// slot's worth of traffic; fresh slots from kAdd events are live).
  std::vector<std::uint8_t> live;
  /// Activated resizes in activation order.
  std::vector<ResizeBoundary> resizes;
  ServerStats stats;                     // merged across shards
  std::vector<ServerStats> tenant_stats; // merged across shards

  /// Requests routed to each shard slot (== shard_ids[s].size()).
  std::vector<std::uint64_t> routed_per_shard() const;
  /// max/mean of routed_per_shard() (shard_imbalance over live slots).
  double imbalance() const;

  /// Canonical per-shard boundary log: "resize <i>: t=<t>ns op=<add|remove>
  /// shard=<s> moved=<k>" lines for the activated resizes, then a
  /// "shard <s>:" header per shard slot followed by that shard's
  /// replay_trace log (swap lines and " v=<version>" suffixes included) with
  /// ids remapped to global trace indices. Byte-identical across
  /// runs/threads/backends.
  std::string boundary_log() const;
};

/// Route, split, and replay the trace over the (possibly resizing) virtual
/// shard set. Requires trace arrivals and scripted resizes to be
/// non-decreasing.
ShardedReplayResult replay_sharded(std::span<const TraceEvent> trace,
                                   const ShardedReplayConfig& cfg,
                                   const ShardedReplayExec& exec);

}  // namespace enw::serve
