// Shard routing and per-tenant SLO policies for enw::serve.
//
// The single-collator Server (server.h) tops out at one backend's batch
// throughput. Datacenter recommendation serving partitions the work: model
// replicas (and their embedding tables, src/recsys/sharded_table.h) live on
// N worker shards, and a router sends each request to the shard owning its
// routing key. Two properties matter and both are tested as properties
// (tests/test_shard_router.cpp):
//
//  * load spread — keys hash across shards uniformly enough that no shard
//    sees more than a stated multiple of the mean, on uniform AND Zipf key
//    streams (a hot key still pins its full mass to one shard; the bound
//    states how much that costs);
//  * remap stability — adding or removing one shard remaps only the ~K/N
//    keys whose arc changed owner (consistent hashing, core/hash.h), so a
//    resize does not invalidate every shard's warm embedding cache.
//
// Tenancy: a multi-tenant deployment gives each tenant its own latency
// contract. TenantPolicy carries the three SLO knobs — a relative deadline,
// the backpressure mode applied when the tenant is over budget, and a
// bounded share of each shard's admission queue. The queue share is the
// isolation mechanism: a tenant saturating its own share cannot occupy the
// slots another tenant's contract depends on, so one runaway client
// degrades itself, not its neighbours (tests/test_serve_sharded.cpp pins
// this under the deterministic replay harness).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/hash.h"
#include "serve/serve.h"

namespace enw::serve {

/// Key -> shard map over shards 0..num_shards-1 (consistent-hash ring).
/// Routing is a pure integer function of (key, membership, vnodes): bitwise
/// identical across runs, thread counts, and kernel backends.
class ShardRouter {
 public:
  explicit ShardRouter(std::size_t num_shards, std::size_t vnodes = 64)
      : ring_(check_shards(num_shards), vnodes), next_id_(num_shards) {}

  std::size_t num_shards() const { return ring_.members(); }

  /// The shard owning `key`.
  std::size_t route(std::uint64_t key) const { return ring_.owner(key); }

  /// The id the next add_shard() will assign. Ids are never reused, so a
  /// caller building a shard's backend BEFORE installing it (the live
  /// resize path) can name the shard in advance.
  std::size_t next_shard_id() const { return next_id_; }

  /// Add a new shard; returns its id. Only ~K/(N+1) keys remap, all of
  /// them TO the new shard.
  std::size_t add_shard() {
    const std::size_t id = next_id_++;
    ring_.add(id);
    return id;
  }

  /// Remove a shard; only the keys it owned remap (to ring successors).
  void remove_shard(std::size_t shard) { ring_.remove(shard); }

 private:
  static std::size_t check_shards(std::size_t n) {
    ENW_CHECK_MSG(n > 0, "router needs at least one shard");
    return n;
  }

  core::ConsistentHashRing ring_;
  std::size_t next_id_;
};

/// One tenant's SLO: deadline, backpressure mode, and queue share.
struct TenantPolicy {
  std::string name = "default";
  /// Relative deadline applied to each request without its own (0 = none).
  /// ServeCore counts it from arrival into the absolute deadline the shed
  /// predicate checks.
  std::uint64_t deadline_ns = 0;
  /// What happens when this tenant is over its queue share (or the shard
  /// queue is full): fail fast with kRejected, or wait for space.
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  /// Fraction of each shard's admission queue this tenant may occupy,
  /// in (0, 1]. The quota floor is one slot, so every tenant always makes
  /// progress.
  double queue_share = 1.0;
};

/// The tenant table a deployment runs: `tenants` itself, or, when it is
/// empty, one default tenant (no deadline, full queue share) with the given
/// admission mode. ServeCore, MultiShardServer and replay_sharded resolve
/// their tables here.
std::vector<TenantPolicy> resolve_tenants(std::vector<TenantPolicy> tenants,
                                          AdmissionPolicy admission);

/// The slot quota a queue share buys against a queue of `capacity`:
/// floor(queue_share * capacity), minimum one slot.
///
/// The floor is taken with a relative-epsilon nudge because the product
/// itself is inexact: 0.1 * 30 evaluates to 2.999...96, and truncating THAT
/// silently costs a tenant a slot it was configured to have. Scaling by
/// (1 + 4 eps) restores products that are exact ratios up to a few ulps of
/// representation error while leaving genuinely fractional shares floored
/// (0.15 * 10 = 1.5 still buys 1 slot — the nudge is ~1e-15 relative, eight
/// orders of magnitude below any intentional fraction).
inline std::size_t tenant_quota(const TenantPolicy& t, std::size_t capacity) {
  ENW_CHECK_MSG(t.queue_share > 0.0 && t.queue_share <= 1.0,
                "queue_share must be in (0, 1]");
  const double x = t.queue_share * static_cast<double>(capacity);
  const auto q = static_cast<std::size_t>(
      x * (1.0 + 4.0 * std::numeric_limits<double>::epsilon()));
  return q == 0 ? 1 : std::min(q, capacity);
}

/// Load-imbalance statistic for per-shard counts: max / mean (1.0 = perfectly
/// even; 0.0 for an empty or all-zero count set).
double shard_imbalance(std::span<const std::uint64_t> per_shard_counts);

/// Same statistic over id-indexed counts where some slots are retired
/// (post-resize reports): only slots with live[s] != 0 enter the max and the
/// mean, so a removed shard's historical count cannot skew the balance of
/// the shards actually serving.
double shard_imbalance(std::span<const std::uint64_t> per_shard_counts,
                       std::span<const std::uint8_t> live);

}  // namespace enw::serve
