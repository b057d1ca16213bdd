// Sharded multi-tenant serving front-end (enw::serve::MultiShardServer).
//
// Composition of the pieces this layer adds nothing numeric to: a
// ShardRouter (shard.h) maps each request's routing key to one of N worker
// shards, each shard is a complete Server<In, Out> (server.h) — its own
// bounded queue, collator thread, and model-replica backend — and a
// per-tenant SLO table (TenantPolicy) decides the deadline, backpressure
// mode, and queue share every submission is held to. The value contract is
// inherited unchanged: a request's result is computed by whichever shard
// replica owns its key, through the same batched GEMM paths, so served
// outputs stay bitwise-equal to the offline reference whatever the routing,
// batching, or tenant mix (the replicas must be numerically identical,
// e.g. built from one seed — that is the deployment's job, and what the
// tests construct).
//
// Live resizing: add_shard/remove_shard change the shard set under traffic.
// add_shard builds the complete new shard (server + backend) BEFORE touching
// the routing state, so a throwing factory — a dead target — changes
// nothing; only then does the ring gain the new member, remapping the
// ~K/(N+1) keys consistent hashing promises. remove_shard first removes the
// member from the ring (no NEW request can route there), then drains the
// victim: requests already admitted complete on the old shard ("complete on
// old"), requests blocked in its queue wake with kShutdown and submit()
// transparently re-routes them with the updated ring ("reroute to new") —
// every in-flight request reaches exactly one typed terminal status, never
// dropped, never served by two shards. Shard ids are never
// reused; a removed shard's slot is retired (kept for id-indexed reports)
// and its Shard object lives until destruction so stragglers drain safely.
// Membership reads take a shared lock; only resizes take it exclusively,
// and resizes/swaps serialize on one control-plane mutex.
//
// Tenant isolation: every shard's Server runs this layer's resolved tenant
// table, so each tenant owns a bounded quota of every shard's admission
// slots (tenant_quota: floor(queue_share * queue_capacity), min 1). The
// shard's ServeCore (serve_core.h) enforces it at admission, under the
// shard's one lock: a request holds one of its tenant's slots from
// admission to its terminal status — queued, collated, or executing — so a
// tenant saturating its quota can exhaust neither the shard queue nor
// another tenant's slots. Over-quota or full-queue behaviour follows the
// tenant's own admission policy: kReject fails fast with Status::kRejected;
// kBlock waits, holding no slot, in the shard's blocked FIFO until a
// collation or completion makes room (or shutdown/retirement cancels it).
// Quota rejections count in the shard's stats like any other reject.
//
// Accounting: per-tenant terminal-status counters and completed-request
// latency samples (p50/p99 via percentile_ns), per-shard routed counts for
// the load-imbalance statistic (live shards only after a resize), a
// rerouted() counter and ResizeRecord history for the rebalance transients,
// and obs counter families "serve.shard.routed.<s>" /
// "serve.tenant.<field>.<t>" (one per TenantReport status field) /
// "serve.shard.resize.*".
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/check.h"
#include "obs/obs.h"
#include "serve/serve.h"
#include "serve/server.h"
#include "serve/shard.h"

namespace enw::serve {

struct MultiShardConfig {
  ServeConfig shard;              // every shard's Server config
  std::size_t num_shards = 1;
  std::size_t vnodes = 64;        // router ring density
  /// Tenant table; index = tenant id. Empty means one default tenant with
  /// no deadline, full queue share, and the shard config's admission mode.
  std::vector<TenantPolicy> tenants;
};

/// One completed membership change, in control-plane order.
struct ResizeRecord {
  std::uint64_t t_ns = 0;  // monotonic_now_ns at commit
  bool added = false;      // true: add_shard, false: remove_shard
  std::size_t shard = 0;   // id added or retired
};

template <typename In, typename Out>
class MultiShardServer {
 public:
  using BatchFn = typename Server<In, Out>::BatchFn;
  using Reply = typename Server<In, Out>::Reply;
  /// Builds shard s's backend — typically a model replica adapter from
  /// backends.h. Called once per shard at construction (and once for the
  /// new shard on add_shard).
  using BackendFactory = std::function<BatchFn(std::size_t shard)>;

  /// Per-tenant terminal-status counts and completed-latency percentiles.
  struct TenantReport {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t errors = 0;
    std::uint64_t shutdown = 0;
    std::uint64_t p50_ns = 0;  // over completed requests
    std::uint64_t p99_ns = 0;
  };

  MultiShardServer(const MultiShardConfig& cfg, const BackendFactory& factory)
      : cfg_(normalize(cfg)), router_(cfg_.num_shards, cfg_.vnodes) {
    ENW_CHECK_MSG(static_cast<bool>(factory), "backend factory must be callable");
    tenants_.reserve(cfg_.tenants.size());
    for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
      tenants_.push_back(std::make_unique<TenantState>());
    }
    shards_.reserve(cfg_.num_shards);
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      shards_.push_back(
          std::make_unique<Shard>(cfg_.shard, factory(s), cfg_.tenants));
    }
  }

  ~MultiShardServer() { shutdown(); }
  MultiShardServer(const MultiShardServer&) = delete;
  MultiShardServer& operator=(const MultiShardServer&) = delete;

  const MultiShardConfig& config() const { return cfg_; }
  /// Live shard count (retired slots excluded).
  std::size_t num_shards() const {
    std::shared_lock<std::shared_mutex> lk(route_mu_);
    return router_.num_shards();
  }
  /// Id-indexed slot count (highest ever shard id + 1); retired slots stay
  /// addressable so id-keyed reports keep their columns.
  std::size_t shard_slots() const {
    std::shared_lock<std::shared_mutex> lk(route_mu_);
    return shards_.size();
  }
  bool shard_live(std::size_t s) const {
    std::shared_lock<std::shared_mutex> lk(route_mu_);
    return s < shards_.size() &&
           !shards_[s]->retired.load(std::memory_order_acquire);
  }

  /// Route by key, hold to the tenant's SLO, and serve on the owning shard.
  /// Blocks until the request reaches a terminal status (like
  /// Server::submit). tenant indexes the config's tenant table. If the
  /// owning shard is retired mid-flight before this request is admitted,
  /// the request transparently re-routes with the updated ring — the typed
  /// outcome the caller sees comes from exactly one shard.
  Reply submit(const In& input, std::uint64_t key, std::size_t tenant = 0) {
    ENW_SPAN("serve.shard.submit");
    ENW_CHECK_MSG(tenant < cfg_.tenants.size(), "unknown tenant id");
    for (;;) {
      Shard* shard;
      std::size_t s;
      {
        std::shared_lock<std::shared_mutex> lk(route_mu_);
        s = router_.route(key);
        shard = shards_[s].get();
      }
      shard->routed.fetch_add(1, std::memory_order_relaxed);
      obs::counter_add_indexed("serve.shard.routed", s, 1);

      Reply reply = shard->server.submit(input, /*deadline_ns=*/0, tenant);
      if (reply.status == Status::kShutdown &&
          !stopping_.load(std::memory_order_acquire)) {
        // The shard retired before admitting this request: it arrived after
        // the shard began draining, or waited blocked until the drain
        // cancelled it. Either way it was never admitted there, so re-routing
        // with the post-resize ring serves it exactly once on its new owner.
        rerouted_.fetch_add(1, std::memory_order_relaxed);
        obs::counter_add("serve.shard.resize.rerouted", 1);
        continue;
      }
      record(tenant, reply);
      return reply;
    }
  }

  /// Grow the fleet by one shard under live traffic; returns the new id.
  /// The full shard (server thread + backend from factory(id)) is built
  /// BEFORE the ring changes, so a throwing factory — a dead target —
  /// leaves membership, routing, and every reply bitwise unchanged.
  /// After the ring commit, only the ~K/(N+1) remapped keys route to the
  /// new shard; requests for those keys already admitted on their old
  /// shards complete there (replicas are numerically identical, so
  /// complete-on-old and reroute-to-new return the same bits).
  std::size_t add_shard(const BackendFactory& factory) {
    ENW_CHECK_MSG(static_cast<bool>(factory), "backend factory must be callable");
    std::lock_guard<std::mutex> resize_lk(resize_mu_);
    const std::size_t id = router_.next_shard_id();  // stable under resize_mu_
    auto shard = std::make_unique<Shard>(cfg_.shard, factory(id), cfg_.tenants);
    {
      std::unique_lock<std::shared_mutex> lk(route_mu_);
      shards_.push_back(std::move(shard));
      const std::size_t got = router_.add_shard();
      ENW_CHECK_MSG(got == id, "router assigned an unexpected shard id");
    }
    record_resize(true, id);
    obs::counter_add("serve.shard.resize.added", 1);
    return id;
  }

  /// Retire shard `s` under live traffic. The ring loses the member first
  /// (no NEW request can route there), then the victim drains: admitted
  /// requests complete on the old shard, blocked ones wake with kShutdown
  /// and re-route via submit()'s retry loop. Returns when the victim has fully
  /// drained. The slot stays addressable (retired) and ids are not reused.
  void remove_shard(std::size_t s) {
    std::lock_guard<std::mutex> resize_lk(resize_mu_);
    Shard* shard;
    {
      std::unique_lock<std::shared_mutex> lk(route_mu_);
      ENW_CHECK_MSG(s < shards_.size() &&
                        !shards_[s]->retired.load(std::memory_order_acquire),
                    "unknown or retired shard id");
      ENW_CHECK_MSG(router_.num_shards() > 1, "cannot remove the last shard");
      router_.remove_shard(s);
      shard = shards_[s].get();
      shard->retired.store(true, std::memory_order_release);
    }
    shard->server.shutdown();  // drains admitted; blocked ones get kShutdown
    record_resize(false, s);
    obs::counter_add("serve.shard.resize.removed", 1);
  }

  /// All-or-nothing hot-swap across every live shard. The factory is
  /// invoked for ALL live shards first — if building any replacement
  /// backend throws (e.g. a corrupt artifact rejected at load), NO shard is
  /// swapped and every shard keeps serving the old version. Only after all
  /// backends exist does the swap run shard by shard; each shard's swap has
  /// the per-batch atomicity of Server::swap_backend. Brief mixed-version
  /// service across shards during the installation loop is inherent to a
  /// rolling swap — what this method rules out is a *stuck* mix from a
  /// mid-rollout failure. Serialized against resizes, so the membership the
  /// factory sees is the membership that swaps.
  void swap_backend(const BackendFactory& factory, std::uint64_t version) {
    ENW_CHECK_MSG(static_cast<bool>(factory), "backend factory must be callable");
    std::lock_guard<std::mutex> resize_lk(resize_mu_);  // freeze membership
    std::vector<std::pair<std::size_t, BatchFn>> next;
    next.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s]->retired.load(std::memory_order_acquire)) continue;
      next.emplace_back(s, factory(s));  // throws here => nothing swapped
      ENW_CHECK_MSG(static_cast<bool>(next.back().second),
                    "backend factory returned a non-callable fn");
    }
    for (auto& [s, fn] : next) {
      shards_[s]->server.swap_backend(std::move(fn), version);
    }
  }

  /// Backend version per shard slot (equal across live shards except
  /// mid-rollout; retired slots report their last version).
  std::vector<std::uint64_t> backend_versions() const {
    std::shared_lock<std::shared_mutex> lk(route_mu_);
    std::vector<std::uint64_t> v;
    v.reserve(shards_.size());
    for (const auto& s : shards_) v.push_back(s->server.backend_version());
    return v;
  }

  /// Stop every shard: blocked submitters wake with Status::kShutdown, each
  /// shard server drains its admitted requests. Idempotent.
  void shutdown() {
    stopping_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> resize_lk(resize_mu_);  // freeze membership
    for (auto& shard : shards_) shard->server.shutdown();
  }

  TenantReport tenant_report(std::size_t tenant) const {
    ENW_CHECK_MSG(tenant < tenants_.size(), "unknown tenant id");
    const TenantState& t = *tenants_[tenant];
    std::lock_guard<std::mutex> lk(t.mu);
    TenantReport r = t.report;
    // One sorted copy serves both percentiles (percentile_ns would sort the
    // full sample once per call).
    std::vector<std::uint64_t> sorted = t.latencies;
    std::sort(sorted.begin(), sorted.end());
    r.p50_ns = percentile_sorted_ns(sorted, 50.0);
    r.p99_ns = percentile_sorted_ns(sorted, 99.0);
    return r;
  }

  /// Requests routed to each shard slot (rejected ones included; a
  /// re-routed request counts on every shard it touched).
  std::vector<std::uint64_t> routed_per_shard() const {
    std::shared_lock<std::shared_mutex> lk(route_mu_);
    std::vector<std::uint64_t> counts;
    counts.reserve(shards_.size());
    for (const auto& s : shards_) {
      counts.push_back(s->routed.load(std::memory_order_relaxed));
    }
    return counts;
  }

  /// max/mean of routed_per_shard() over LIVE shards — the bench's
  /// imbalance statistic (retired slots keep their history out of it).
  double imbalance() const {
    std::shared_lock<std::shared_mutex> lk(route_mu_);
    std::vector<std::uint64_t> counts;
    std::vector<std::uint8_t> live;
    counts.reserve(shards_.size());
    live.reserve(shards_.size());
    for (const auto& s : shards_) {
      counts.push_back(s->routed.load(std::memory_order_relaxed));
      live.push_back(s->retired.load(std::memory_order_acquire) ? 0 : 1);
    }
    return shard_imbalance(counts, live);
  }

  /// Requests that re-routed because their shard retired mid-flight.
  std::uint64_t rerouted() const {
    return rerouted_.load(std::memory_order_relaxed);
  }

  /// Completed membership changes, in control-plane order.
  std::vector<ResizeRecord> resize_history() const {
    std::lock_guard<std::mutex> lk(history_mu_);
    return resizes_;
  }

  ServerStats shard_stats(std::size_t shard) const {
    std::shared_lock<std::shared_mutex> lk(route_mu_);
    ENW_CHECK_MSG(shard < shards_.size(), "unknown shard id");
    return shards_[shard]->server.stats();
  }

  /// Sum of every shard server's stats (ServerStats::merge semantics),
  /// retired shards included — their history is part of the deployment's.
  ServerStats stats() const {
    std::shared_lock<std::shared_mutex> lk(route_mu_);
    ServerStats total;
    for (const auto& s : shards_) total.merge(s->server.stats());
    return total;
  }

 private:
  struct Shard {
    Shard(const ServeConfig& cfg, BatchFn fn,
          const std::vector<TenantPolicy>& tenants)
        : server(cfg, std::move(fn), tenants) {}

    Server<In, Out> server;
    std::atomic<std::uint64_t> routed{0};
    std::atomic<bool> retired{false};  // removed from the ring; draining/done
  };

  struct TenantState {
    mutable std::mutex mu;
    TenantReport report;
    std::vector<std::uint64_t> latencies;  // completed requests only
  };

  static MultiShardConfig normalize(MultiShardConfig cfg) {
    ENW_CHECK_MSG(cfg.num_shards > 0, "need at least one shard");
    cfg.tenants = resolve_tenants(std::move(cfg.tenants), cfg.shard.admission);
    return cfg;
  }

  /// Count one terminal status in the tenant's report and in the obs
  /// counter "serve.tenant.<field>.<tenant>", field named as in TenantReport.
  void record(std::size_t tenant, const Reply& reply) {
    TenantState& t = *tenants_[tenant];
    std::lock_guard<std::mutex> lk(t.mu);
    ++t.report.submitted;
    const char* counter = nullptr;
    switch (reply.status) {
      case Status::kOk:
        ++t.report.completed;
        t.latencies.push_back(reply.latency_ns);
        counter = "serve.tenant.completed";
        break;
      case Status::kRejected:
        ++t.report.rejected;
        counter = "serve.tenant.rejected";
        break;
      case Status::kTimedOut:
        ++t.report.shed;
        counter = "serve.tenant.shed";
        break;
      case Status::kError:
        ++t.report.errors;
        counter = "serve.tenant.errors";
        break;
      case Status::kShutdown:
        ++t.report.shutdown;
        counter = "serve.tenant.shutdown";
        break;
    }
    obs::counter_add_indexed(counter, tenant, 1);
  }

  void record_resize(bool added, std::size_t shard) {
    std::lock_guard<std::mutex> lk(history_mu_);
    resizes_.push_back({monotonic_now_ns(), added, shard});
  }

  const MultiShardConfig cfg_;
  /// Guards router_ and the shards_ vector STRUCTURE (Shard objects have
  /// stable addresses and their own synchronization). Readers share;
  /// resizes take it exclusively for the membership commit only.
  mutable std::shared_mutex route_mu_;
  /// Serializes control-plane operations (resize, swap, shutdown) against
  /// each other, without blocking the submit path.
  std::mutex resize_mu_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;   // id-indexed, never erased
  std::vector<std::unique_ptr<TenantState>> tenants_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> rerouted_{0};
  mutable std::mutex history_mu_;
  std::vector<ResizeRecord> resizes_;
};

}  // namespace enw::serve
