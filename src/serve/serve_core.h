// The serving state machine shared by the live Server and replay
// (enw::serve::ServeCore).
//
// ServeCore holds every serving policy that needs neither a clock nor a
// thread: the bounded admission queue; the tenant table and its quotas; the
// FIFO of blocked arrivals; deadline resolution; collation with shedding;
// the backend version a batch runs on; and the stats, per tenant too. Time
// comes in as an argument of each event. The live Server (server.h) calls it
// under its one mutex with monotonic_now_ns(); replay (replay.cpp) drives it
// in virtual time. Each policy therefore has one implementation, and a
// thread-free test (tests/test_serve_core.cpp) checks each rule.
//
// Rules:
//  * Admission. A request is queued when the queue has room AND its tenant
//    holds fewer slots than its quota. Otherwise its tenant's admission mode
//    decides: kReject ends it with Status::kRejected, kBlock appends it to
//    the blocked FIFO.
//  * Quota. A queued request holds one of its tenant's slots until its
//    terminal status: a shed request frees it at its collation, an executed
//    or failed one at finish(). A blocked request holds none. The quota is
//    tenant_quota(policy, queue_capacity). An empty tenant table is one
//    tenant with the config's admission mode and no quota.
//  * Blocked arrivals are re-examined in FIFO order at every collation and
//    every finish(). A waiter whose tenant is still at quota keeps its place
//    and the scan goes on, so an over-budget tenant cannot hold back another
//    tenant's waiter. An admitted waiter's batching window starts then.
//  * Deadlines. A request's own absolute deadline wins; otherwise its
//    tenant's relative deadline counts from arrival (0 = none). A request
//    whose deadline passed before its collation is shed (deadline_expired).
//  * Versions. A batch runs on the version current at its collation; swap()
//    changes the version of later batches only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "core/check.h"
#include "serve/serve.h"
#include "serve/shard.h"

namespace enw::serve {

/// What arrive() did with a request.
enum class Admission {
  kQueued,    // in the queue, holding one of its tenant's slots
  kBlocked,   // kBlock and no room: waits in the blocked FIFO
  kRejected,  // kReject and no room: terminal Status::kRejected
};

/// H is the caller's handle for a request: a pointer to the live submitter's
/// node, or a trace index in replay. The core never looks inside it.
template <typename H>
class ServeCore {
 public:
  /// One collated batch, handed back to finish() once it has run.
  struct Batch {
    FlushReason reason = FlushReason::kWindow;
    std::uint64_t version = 0;          // backend version at collation
    std::vector<H> executed;            // collation order
    std::vector<std::size_t> tenants;   // tenants[i] owns executed[i]
    std::vector<H> shed;                // terminal kTimedOut at collation
  };

  ServeCore(const ServeConfig& cfg, const std::vector<TenantPolicy>& tenants)
      : cfg_(cfg), tenants_(resolve_tenants(tenants, cfg.admission)) {
    ENW_CHECK_MSG(cfg_.max_batch > 0, "max_batch must be positive");
    ENW_CHECK_MSG(cfg_.queue_capacity > 0, "queue_capacity must be positive");
    for (const TenantPolicy& t : tenants_) {
      quota_.push_back(tenants.empty() ? std::numeric_limits<std::size_t>::max()
                                       : tenant_quota(t, cfg_.queue_capacity));
    }
    held_.assign(tenants_.size(), 0);
    tenant_stats_.resize(tenants_.size());
  }

  /// The resolved tenant table (one default entry for an empty table).
  const std::vector<TenantPolicy>& tenants() const { return tenants_; }
  std::size_t queued() const { return queue_.size(); }
  std::size_t blocked() const { return blocked_.size(); }
  /// Slots `tenant` holds: its queued, collated and executing requests.
  std::size_t held(std::size_t tenant) const { return held_.at(tenant); }
  std::uint64_t version() const { return version_; }
  const ServerStats& stats() const { return stats_; }
  /// Per-tenant slice of stats(); the batch fields stay zero.
  const std::vector<ServerStats>& tenant_stats() const { return tenant_stats_; }

  /// The flush policy over the current queue (flush_due).
  FlushDecision due(std::uint64_t now, bool draining) const {
    return flush_due(now, queue_.empty() ? 0 : queue_.front().enqueue_ns,
                     queue_.size(), draining, cfg_);
  }

  /// A request arrives at `now` with its own absolute deadline (0 = none).
  Admission arrive(H h, std::size_t tenant, std::uint64_t deadline_ns,
                   std::uint64_t now) {
    ENW_CHECK_MSG(tenant < tenants_.size(), "unknown tenant id");
    ++stats_.submitted;
    ++tenant_stats_[tenant].submitted;
    const std::uint64_t rel = tenants_[tenant].deadline_ns;
    if (deadline_ns == 0 && rel != 0) deadline_ns = now + rel;
    const Entry e{h, tenant, deadline_ns, now};
    if (admissible(tenant)) {
      enqueue(e, now);
      return Admission::kQueued;
    }
    if (tenants_[tenant].admission == AdmissionPolicy::kReject) {
      ++stats_.rejected;
      ++tenant_stats_[tenant].rejected;
      return Admission::kRejected;
    }
    blocked_.push_back(e);
    return Admission::kBlocked;
  }

  /// Collate up to max_batch queued requests at `now`, which due() must have
  /// found due: shed the expired ones, then re-examine the blocked FIFO.
  Batch collate(std::uint64_t now, bool draining) {
    const FlushDecision d = due(now, draining);
    ENW_CHECK_MSG(d.due, "collate: the flush policy is not due");
    Batch b;
    b.reason = d.reason;
    b.version = version_;
    const std::size_t take = std::min(queue_.size(), cfg_.max_batch);
    for (std::size_t i = 0; i < take; ++i) {
      const Entry e = queue_.front();
      queue_.pop_front();
      if (deadline_expired(e.deadline_ns, now)) {
        --held_[e.tenant];
        ++stats_.shed;
        ++tenant_stats_[e.tenant].shed;
        b.shed.push_back(e.h);
      } else {
        b.executed.push_back(e.h);
        b.tenants.push_back(e.tenant);
      }
    }
    admit_blocked(now);
    return b;
  }

  /// The executed requests of `b` (at least one: a batch whose every request
  /// was shed never runs) reached their terminal status at `now`, kError for
  /// all of them when `failed`: free their slots, count them, and re-examine
  /// the blocked FIFO.
  void finish(const Batch& b, bool failed, std::uint64_t now) {
    for (const std::size_t t : b.tenants) {
      --held_[t];
      ++(failed ? tenant_stats_[t].errors : tenant_stats_[t].completed);
    }
    if (failed) {
      stats_.errors += b.tenants.size();
    } else {
      stats_.completed += b.tenants.size();
      stats_.record_batch(b.tenants.size());
    }
    admit_blocked(now);
  }

  /// Remove every blocked arrival, in FIFO order, for the caller to resolve
  /// (the live server's shutdown answers them Status::kShutdown).
  std::vector<H> cancel_blocked() {
    std::vector<H> out;
    out.reserve(blocked_.size());
    for (const Entry& e : blocked_) out.push_back(e.h);
    blocked_.clear();
    return out;
  }

  /// Batches collated from now on run on `version`.
  void swap(std::uint64_t version) { version_ = version; }

 private:
  struct Entry {
    H h;
    std::size_t tenant;
    std::uint64_t deadline_ns;  // absolute; 0 = none
    std::uint64_t enqueue_ns;   // admission: starts the batching window
  };

  bool admissible(std::size_t tenant) const {
    return queue_.size() < cfg_.queue_capacity &&
           held_[tenant] < quota_[tenant];
  }

  void enqueue(Entry e, std::uint64_t now) {
    e.enqueue_ns = now;
    queue_.push_back(e);
    ++held_[e.tenant];
    stats_.queue_peak = std::max(stats_.queue_peak, queue_.size());
  }

  void admit_blocked(std::uint64_t now) {
    for (auto it = blocked_.begin();
         it != blocked_.end() && queue_.size() < cfg_.queue_capacity;) {
      if (admissible(it->tenant)) {
        enqueue(*it, now);
        it = blocked_.erase(it);
      } else {
        ++it;
      }
    }
  }

  const ServeConfig cfg_;
  const std::vector<TenantPolicy> tenants_;
  std::vector<std::size_t> quota_;  // per tenant
  std::vector<std::size_t> held_;   // slots held per tenant
  std::deque<Entry> queue_;
  std::deque<Entry> blocked_;
  std::uint64_t version_ = 0;
  ServerStats stats_;
  std::vector<ServerStats> tenant_stats_;
};

}  // namespace enw::serve
