// Sharded multi-tenant serving (serve/multi_shard.h, serve/shard_replay.h).
//
// Live tests pin the value contract — requests served through N shard
// replicas built from one seed diff bitwise against the offline
// predict_batch reference, whatever the routing or tenant mix — and the
// tenant quota's typed semantics (over-budget kReject fails fast without
// touching neighbours; kBlock waiters wake on shutdown with the typed
// status), plus the per-tenant obs counters. These run under the TSan CI
// job with an 8-thread pool.
//
// Replay tests pin the SLO isolation properties in virtual time, where they
// are exact: a saturating tenant collects every reject itself, a deadline
// shed lands on the tenant that owns the deadline, the live quota tests'
// replay twins hold a tenant's slot to completion as the live server does,
// and the sharded replay with one shard reduces byte-for-byte to the plain
// replay harness.
#include <gtest/gtest.h>

#include <bit>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "data/click_log.h"
#include "obs/obs.h"
#include "recsys/dlrm.h"
#include "serve/backends.h"
#include "serve/multi_shard.h"
#include "serve/replay.h"
#include "serve/serve.h"
#include "serve/shard.h"
#include "serve/shard_replay.h"

namespace enw::serve {
namespace {

// --- live sharded serving ---------------------------------------------------

recsys::DlrmConfig small_dlrm_config() {
  recsys::DlrmConfig cfg;
  cfg.num_tables = 4;
  cfg.rows_per_table = 300;
  cfg.embed_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  return cfg;
}

TEST(MultiShardServer, ConcurrentTenantsGetBitwiseOfflineResultsAcrossShards) {
  const std::size_t kShards = 4;
  const std::size_t kClients = 8;
  const std::size_t kPerClient = 8;
  const std::size_t n = kClients * kPerClient;

  // Model replicas: one per shard, all built from the same seed, so every
  // shard computes the identical function (the deployment invariant the
  // value contract rides on).
  const recsys::DlrmConfig mcfg = small_dlrm_config();
  std::vector<std::unique_ptr<recsys::Dlrm>> replicas;
  for (std::size_t s = 0; s < kShards; ++s) {
    Rng rng(5);
    replicas.push_back(std::make_unique<recsys::Dlrm>(mcfg, rng));
  }

  data::ClickLogConfig lcfg;
  lcfg.num_dense = mcfg.num_dense;
  lcfg.num_tables = mcfg.num_tables;
  lcfg.rows_per_table = mcfg.rows_per_table;
  const data::ClickLogGenerator gen(lcfg);
  Rng drng(6);
  const std::vector<data::ClickSample> samples = gen.batch(n, drng);
  const std::vector<float> offline = replicas[0]->predict_batch(samples);

  MultiShardConfig cfg;
  cfg.num_shards = kShards;
  cfg.shard.max_batch = 8;
  cfg.shard.max_wait_ns = 200000;  // 200us window
  cfg.shard.queue_capacity = n;
  TenantPolicy batch_tenant;
  batch_tenant.name = "batch";
  batch_tenant.queue_share = 0.5;
  batch_tenant.admission = AdmissionPolicy::kBlock;
  TenantPolicy online_tenant;
  online_tenant.name = "online";
  online_tenant.queue_share = 0.5;
  online_tenant.admission = AdmissionPolicy::kBlock;
  cfg.tenants = {batch_tenant, online_tenant};

  MultiShardServer<data::ClickSample, float> ms(
      cfg, [&](std::size_t s) { return dlrm_backend(*replicas[s]); });

  using Reply = MultiShardServer<data::ClickSample, float>::Reply;
  std::vector<Reply> replies(n);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t id = c * kPerClient + i;
        replies[id] = ms.submit(samples[id], click_routing_key(samples[id]),
                                /*tenant=*/id % 2);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ms.shutdown();

  for (std::size_t id = 0; id < n; ++id) {
    ASSERT_EQ(replies[id].status, Status::kOk) << "id " << id;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(replies[id].value),
              std::bit_cast<std::uint32_t>(offline[id]))
        << "served result differs from offline reference for id " << id;
  }

  const ServerStats total = ms.stats();
  EXPECT_EQ(total.completed, n);
  EXPECT_EQ(total.errors, 0u);
  std::uint64_t routed = 0;
  for (const std::uint64_t c : ms.routed_per_shard()) routed += c;
  EXPECT_EQ(routed, n);
  EXPECT_GE(ms.imbalance(), 1.0);

  const auto rep0 = ms.tenant_report(0);
  const auto rep1 = ms.tenant_report(1);
  EXPECT_EQ(rep0.submitted, n / 2);
  EXPECT_EQ(rep1.submitted, n / 2);
  EXPECT_EQ(rep0.completed + rep1.completed, n);
  EXPECT_LE(rep0.p50_ns, rep0.p99_ns);
  EXPECT_LE(rep1.p50_ns, rep1.p99_ns);
}

/// Backend whose first invocation blocks until released (local copy of the
/// test_serve idiom) — parks a shard's collator mid-execute so the tests can
/// sequence tenant admissions exactly.
struct GatedEcho {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  Server<int, int>::BatchFn fn() {
    return [this](std::span<const int> batch) {
      {
        std::unique_lock<std::mutex> lk(mu);
        if (!entered) {
          entered = true;
          cv.notify_all();
          cv.wait(lk, [this] { return released; });
        }
      }
      return std::vector<int>(batch.begin(), batch.end());
    };
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
    cv.notify_all();
  }
};

TEST(MultiShardServer, OverBudgetTenantRejectsWithoutTouchingNeighbor) {
  MultiShardConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.max_batch = 1;
  cfg.shard.max_wait_ns = 0;
  cfg.shard.queue_capacity = 8;
  TenantPolicy greedy;  // quota floor(0.125 * 8) = 1 outstanding request
  greedy.name = "greedy";
  greedy.queue_share = 0.125;
  greedy.admission = AdmissionPolicy::kReject;
  TenantPolicy neighbor;
  neighbor.name = "neighbor";
  neighbor.queue_share = 0.5;
  neighbor.admission = AdmissionPolicy::kReject;
  cfg.tenants = {greedy, neighbor};

  GatedEcho gate;
  MultiShardServer<int, int> ms(cfg, [&](std::size_t) { return gate.fn(); });

  std::thread first([&] { EXPECT_EQ(ms.submit(1, 0, 0).status, Status::kOk); });
  gate.wait_entered();  // greedy's request is mid-execute: outstanding == 1

  // Greedy is at quota: its next submission fails fast with the typed
  // status, without taking a queue slot.
  EXPECT_EQ(ms.submit(2, 0, 0).status, Status::kRejected);

  // The neighbour's budget is untouched: its request admits and completes.
  std::thread second([&] { EXPECT_EQ(ms.submit(3, 0, 1).status, Status::kOk); });
  while (ms.shard_stats(0).submitted < 3) std::this_thread::yield();

  gate.release();
  first.join();
  second.join();
  ms.shutdown();

  const auto greedy_rep = ms.tenant_report(0);
  EXPECT_EQ(greedy_rep.submitted, 2u);
  EXPECT_EQ(greedy_rep.completed, 1u);
  EXPECT_EQ(greedy_rep.rejected, 1u);
  const auto neighbor_rep = ms.tenant_report(1);
  EXPECT_EQ(neighbor_rep.completed, 1u);
  EXPECT_EQ(neighbor_rep.rejected, 0u);
  // The shard counts the quota reject like any other, as the replay twin
  // (ReplayTenants.OverBudgetTenantRejectsWithoutTouchingNeighbor) does.
  EXPECT_EQ(ms.stats().submitted, 3u);
  EXPECT_EQ(ms.stats().rejected, 1u);
  EXPECT_EQ(ms.stats().completed, 2u);
}

TEST(MultiShardServer, BlockedTenantGateWakesOnShutdownWithTypedStatus) {
  MultiShardConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.max_batch = 1;
  cfg.shard.max_wait_ns = 0;
  cfg.shard.queue_capacity = 8;
  TenantPolicy patient;  // quota 1, waits when over budget
  patient.queue_share = 0.125;
  patient.admission = AdmissionPolicy::kBlock;
  cfg.tenants = {patient};

  GatedEcho gate;
  MultiShardServer<int, int> ms(cfg, [&](std::size_t) { return gate.fn(); });

  std::thread first([&] { EXPECT_EQ(ms.submit(1, 0, 0).status, Status::kOk); });
  gate.wait_entered();  // outstanding == quota == 1

  // shutdown() blocks in the down thread (the gated batch is still
  // executing) but sets the stopping flag first, so the main thread's
  // submission — blocked on its quota or arriving after the flag —
  // resolves to the typed status. The quota CANNOT free any other way: the
  // executing request holds the tenant's one slot until release() below.
  std::thread down([&] { ms.shutdown(); });
  const auto blocked = ms.submit(2, 0, 0);
  EXPECT_EQ(blocked.status, Status::kShutdown);

  gate.release();  // let the in-flight batch finish so shutdown can drain
  down.join();
  first.join();
  EXPECT_EQ(ms.tenant_report(0).completed, 1u);
  EXPECT_EQ(ms.tenant_report(0).shutdown, 1u);
}

TEST(MultiShardServer, CountsEveryTenantOutcomeInObs) {
  // Tenant 2 (kReject, quota 1, holding nothing) is turned away by the full
  // shared queue, not by its quota; a submission after shutdown resolves
  // kShutdown. Both reach the "serve.tenant.<field>.<t>" counters, as do the
  // completions.
  MultiShardConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.max_batch = 1;
  cfg.shard.max_wait_ns = 0;
  cfg.shard.queue_capacity = 1;
  TenantPolicy patient;
  patient.admission = AdmissionPolicy::kBlock;
  TenantPolicy impatient;
  impatient.admission = AdmissionPolicy::kReject;
  cfg.tenants = {patient, patient, impatient};

  obs::set_enabled(true);
  obs::reset();
  {
    GatedEcho gate;
    MultiShardServer<int, int> ms(cfg, [&](std::size_t) { return gate.fn(); });
    std::thread first([&] { EXPECT_EQ(ms.submit(1, 0, 0).status, Status::kOk); });
    gate.wait_entered();
    std::thread second([&] { EXPECT_EQ(ms.submit(2, 0, 1).status, Status::kOk); });
    while (ms.shard_stats(0).submitted < 2) std::this_thread::yield();
    EXPECT_EQ(ms.submit(3, 0, 2).status, Status::kRejected);
    gate.release();
    first.join();
    second.join();
    ms.shutdown();
    EXPECT_EQ(ms.submit(4, 0, 2).status, Status::kShutdown);
    EXPECT_EQ(ms.tenant_report(2).rejected, 1u);
    EXPECT_EQ(ms.tenant_report(2).shutdown, 1u);
  }
  const obs::TraceReport report = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();
  const auto count = [&](const std::string& name) -> std::uint64_t {
    const auto it = report.counters.find(name);
    return it == report.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(count("serve.tenant.completed.0"), 1u);
  EXPECT_EQ(count("serve.tenant.completed.1"), 1u);
  EXPECT_EQ(count("serve.tenant.rejected.2"), 1u);
  EXPECT_EQ(count("serve.tenant.shutdown.2"), 1u);
  EXPECT_EQ(count("serve.rejected"), 1u) << "the shard counts it too";
}

TEST(MultiShardServer, UnknownTenantThrowsAndLateSubmitGetsShutdownStatus) {
  MultiShardConfig cfg;  // empty tenant table -> one default tenant
  cfg.num_shards = 2;
  MultiShardServer<int, int> ms(cfg, [](std::size_t) {
    return [](std::span<const int> batch) {
      return std::vector<int>(batch.begin(), batch.end());
    };
  });
  EXPECT_EQ(ms.config().tenants.size(), 1u);
  EXPECT_THROW(ms.submit(1, 0, /*tenant=*/3), std::invalid_argument);
  EXPECT_EQ(ms.submit(1, 0).status, Status::kOk);
  ms.shutdown();
  EXPECT_EQ(ms.submit(2, 0).status, Status::kShutdown);
}

// --- replay: tenant SLO isolation in virtual time ---------------------------

TEST(ReplayTenants, SaturatingTenantCollectsEveryRejectItself) {
  // Tenant 0 bursts 64 requests at t=0 against a quota of 8; tenant 1 sends
  // a paced trickle. Isolation contract: every reject lands on tenant 0,
  // tenant 1 completes everything with bounded latency.
  std::vector<TraceEvent> trace;
  for (std::size_t i = 0; i < 64; ++i) trace.push_back({0, 0, 0, 0});
  for (std::size_t i = 0; i < 8; ++i) {
    trace.push_back({10000 * (i + 1), 0, 0, 1});
  }

  ReplayConfig cfg;
  cfg.serve.max_batch = 8;
  cfg.serve.max_wait_ns = 100000;
  cfg.serve.queue_capacity = 16;
  cfg.service_ns = 200000;
  TenantPolicy burst;
  burst.name = "burst";
  burst.queue_share = 0.5;  // quota 8 of 16
  burst.admission = AdmissionPolicy::kReject;
  TenantPolicy paced = burst;
  paced.name = "paced";
  cfg.tenants = {burst, paced};

  const ReplayResult r =
      replay_trace(trace, cfg,
                   [](std::span<const std::size_t>, std::uint64_t) {});

  EXPECT_EQ(r.tenant_stats[0].submitted, 64u);
  EXPECT_EQ(r.tenant_stats[0].completed, 8u);
  EXPECT_EQ(r.tenant_stats[0].rejected, 56u);
  EXPECT_EQ(r.tenant_stats[1].submitted, 8u);
  EXPECT_EQ(r.tenant_stats[1].completed, 8u);
  EXPECT_EQ(r.tenant_stats[1].rejected, 0u) << "the neighbour's saturation "
                                               "leaked into tenant 1";
  EXPECT_EQ(r.tenant_stats[1].shed, 0u);
  for (std::size_t id = 64; id < trace.size(); ++id) {
    EXPECT_EQ(r.outcomes[id].status, Status::kOk) << "tenant-1 id " << id;
  }
  const std::uint64_t p99 =
      percentile_ns(tenant_latencies(r, trace, 1), 99.0);
  EXPECT_GT(p99, 0u);
  EXPECT_LE(p99, 500000u) << "tenant 1's tail latency inflated under the "
                             "neighbour's burst";
  // Cross-check the aggregate slice identity.
  EXPECT_EQ(r.stats.rejected,
            r.tenant_stats[0].rejected + r.tenant_stats[1].rejected);
  EXPECT_EQ(r.stats.completed,
            r.tenant_stats[0].completed + r.tenant_stats[1].completed);
}

TEST(ReplayTenants, BlockedSaturatingTenantDrainsWithoutStarvingNeighbor) {
  // Same burst under kBlock: tenant 0's overflow blocks and
  // drains in quota-sized waves; tenant 1 still completes everything (the
  // freed-slot FIFO skips over-quota waiters instead of letting them absorb
  // the neighbour's slots).
  std::vector<TraceEvent> trace;
  for (std::size_t i = 0; i < 64; ++i) trace.push_back({0, 0, 0, 0});
  for (std::size_t i = 0; i < 8; ++i) {
    trace.push_back({10000 * (i + 1), 0, 0, 1});
  }

  ReplayConfig cfg;
  cfg.serve.max_batch = 8;
  cfg.serve.max_wait_ns = 100000;
  cfg.serve.queue_capacity = 16;
  cfg.service_ns = 200000;
  TenantPolicy burst;
  burst.queue_share = 0.5;
  burst.admission = AdmissionPolicy::kBlock;
  TenantPolicy paced;
  paced.queue_share = 0.5;
  paced.admission = AdmissionPolicy::kReject;
  cfg.tenants = {burst, paced};

  const ReplayResult r =
      replay_trace(trace, cfg,
                   [](std::span<const std::size_t>, std::uint64_t) {});
  EXPECT_EQ(r.tenant_stats[0].completed, 64u);
  EXPECT_EQ(r.tenant_stats[0].rejected, 0u);
  EXPECT_EQ(r.tenant_stats[1].completed, 8u);
  EXPECT_EQ(r.tenant_stats[1].rejected, 0u);
  EXPECT_EQ(r.stats.completed, 72u);
}

// The replay twins of the live tenant-quota tests: a request holds its
// tenant's slot until its terminal status, not until it is collated.

TEST(ReplayTenants, OverBudgetTenantRejectsWithoutTouchingNeighbor) {
  // MultiShardServer.OverBudgetTenantRejectsWithoutTouchingNeighbor in
  // virtual time: greedy's first request is still executing (0..1000 ns)
  // when its second arrives, so the second is over quota and rejected; the
  // neighbour's request admits and completes.
  ReplayConfig cfg;
  cfg.serve.max_batch = 1;
  cfg.serve.max_wait_ns = 0;
  cfg.serve.queue_capacity = 8;
  cfg.service_ns = 1000;
  TenantPolicy greedy;  // quota floor(0.125 * 8) = 1 outstanding request
  greedy.name = "greedy";
  greedy.queue_share = 0.125;
  greedy.admission = AdmissionPolicy::kReject;
  TenantPolicy neighbor;
  neighbor.name = "neighbor";
  neighbor.queue_share = 0.5;
  neighbor.admission = AdmissionPolicy::kReject;
  cfg.tenants = {greedy, neighbor};
  const std::vector<TraceEvent> trace = {
      {0, 0, 0, 0}, {1, 0, 0, 0}, {2, 0, 0, 1}};

  const ReplayResult r = replay_trace(
      trace, cfg, [](std::span<const std::size_t>, std::uint64_t) {});
  EXPECT_EQ(r.outcomes[0].status, Status::kOk);
  EXPECT_EQ(r.outcomes[1].status, Status::kRejected);
  EXPECT_EQ(r.outcomes[2].status, Status::kOk);
  EXPECT_EQ(r.tenant_stats[0].completed, 1u);
  EXPECT_EQ(r.tenant_stats[0].rejected, 1u);
  EXPECT_EQ(r.tenant_stats[1].completed, 1u);
  EXPECT_EQ(r.tenant_stats[1].rejected, 0u);
  // The neighbour waits only for the executor, which frees at 1000 ns.
  ASSERT_EQ(r.batches.size(), 2u);
  EXPECT_EQ(r.batches[1].executed, (std::vector<std::size_t>{2}));
  EXPECT_EQ(r.batches[1].flush_ns, 1000u);
}

TEST(ReplayTenants, BlockedTenantIsAdmittedAtCompletionNotAtCollation) {
  // kBlock twin: greedy (quota 1) sends at 0 and 1 ns. The first flushes by
  // window at 500 ns and completes at 1500 ns; only then does the second
  // take the slot, so its window starts at 1500 ns and it flushes at 2000 ns.
  ReplayConfig cfg;
  cfg.serve.max_batch = 2;
  cfg.serve.max_wait_ns = 500;
  cfg.serve.queue_capacity = 8;
  cfg.service_ns = 1000;
  TenantPolicy greedy;
  greedy.queue_share = 0.125;
  greedy.admission = AdmissionPolicy::kBlock;
  cfg.tenants = {greedy};
  const std::vector<TraceEvent> trace = {{0, 0}, {1, 0}};

  const ReplayResult r = replay_trace(
      trace, cfg, [](std::span<const std::size_t>, std::uint64_t) {});
  ASSERT_EQ(r.batches.size(), 2u);
  EXPECT_EQ(r.batches[0].flush_ns, 500u);
  EXPECT_EQ(r.batches[0].executed, (std::vector<std::size_t>{0}));
  EXPECT_EQ(r.batches[1].flush_ns, 2000u);
  EXPECT_EQ(r.batches[1].reason, FlushReason::kWindow);
  EXPECT_EQ(r.batches[1].executed, (std::vector<std::size_t>{1}));
  EXPECT_EQ(r.outcomes[1].status, Status::kOk);
  EXPECT_EQ(r.outcomes[1].done_ns, 3000u);
}

TEST(ReplayTenants, ShedRequestFreesItsSlotAtItsFlush) {
  // Request 0 (quota 1) is shed at its 100 ns window flush: it reaches its
  // terminal status there, so the blocked request 1 takes the slot at that
  // flush instead of waiting for any completion.
  ReplayConfig cfg;
  cfg.serve.max_batch = 4;
  cfg.serve.max_wait_ns = 100;
  cfg.serve.queue_capacity = 8;
  cfg.service_ns = 1000;
  TenantPolicy patient;
  patient.queue_share = 0.125;
  patient.admission = AdmissionPolicy::kBlock;
  cfg.tenants = {patient};
  const std::vector<TraceEvent> trace = {{0, 50}, {10, 0}};

  const ReplayResult r = replay_trace(
      trace, cfg, [](std::span<const std::size_t>, std::uint64_t) {});
  EXPECT_EQ(r.outcomes[0].status, Status::kTimedOut);
  EXPECT_EQ(r.outcomes[0].done_ns, 100u);
  ASSERT_EQ(r.batches.size(), 2u);
  EXPECT_EQ(r.batches[0].shed, (std::vector<std::size_t>{0}));
  EXPECT_EQ(r.batches[1].flush_ns, 200u) << "window from the shed flush";
  EXPECT_EQ(r.batches[1].executed, (std::vector<std::size_t>{1}));
  EXPECT_EQ(r.outcomes[1].status, Status::kOk);
}

TEST(ReplayTenants, DeadlineShedLandsOnTheTenantThatOwnsTheDeadline) {
  // Tenant 1 carries a 50us SLO deadline (policy-level, applied to events
  // without their own stamp); tenant 0 has none. The 100us window flush
  // sheds exactly tenant 1's un-stamped request; an event-level stamp
  // overrides the policy.
  std::vector<TraceEvent> trace = {
      {0, 0, 0, 0},       // tenant 0, no deadline -> executes
      {0, 0, 0, 1},       // tenant 1, policy deadline 50us -> shed at 100us
      {0, 200000, 0, 1},  // tenant 1, own stamp 200us overrides -> executes
  };
  ReplayConfig cfg;
  cfg.serve.max_batch = 8;
  cfg.serve.max_wait_ns = 100000;
  TenantPolicy relaxed;
  TenantPolicy strict;
  strict.deadline_ns = 50000;
  cfg.tenants = {relaxed, strict};

  std::vector<std::size_t> executed;
  const ReplayResult r =
      replay_trace(
          trace, cfg, [&](std::span<const std::size_t> ids, std::uint64_t) {
            executed.insert(executed.end(), ids.begin(), ids.end());
          });
  EXPECT_EQ(r.outcomes[0].status, Status::kOk);
  EXPECT_EQ(r.outcomes[1].status, Status::kTimedOut);
  EXPECT_EQ(r.outcomes[2].status, Status::kOk);
  EXPECT_EQ(executed, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(r.tenant_stats[0].shed, 0u);
  EXPECT_EQ(r.tenant_stats[1].shed, 1u) << "the shed must be accounted to "
                                           "the tenant whose SLO expired";
  ASSERT_EQ(r.batches.size(), 1u);
  EXPECT_EQ(r.batches[0].shed, (std::vector<std::size_t>{1}));
}

// --- replay: sharded harness ------------------------------------------------

std::vector<TraceEvent> zipf_keyed_trace(std::size_t n, std::uint64_t seed) {
  Rng trng(seed);
  std::vector<TraceEvent> trace = poisson_trace(n, 30000.0, 0, trng);
  const ZipfSampler zipf(100000, 1.05);
  Rng krng(seed + 1);
  for (std::size_t i = 0; i < n; ++i) {
    trace[i].key = static_cast<std::uint64_t>(zipf.sample(krng));
    trace[i].tenant = static_cast<std::uint32_t>(i % 2);
  }
  return trace;
}

ReplayConfig two_tenant_config() {
  ReplayConfig cfg;
  cfg.serve.max_batch = 6;
  cfg.serve.max_wait_ns = 100000;
  cfg.serve.queue_capacity = 32;
  cfg.service_ns = 90000;
  TenantPolicy a;
  a.queue_share = 0.5;
  TenantPolicy b;
  b.queue_share = 0.5;
  cfg.tenants = {a, b};
  return cfg;
}

TEST(ShardedReplay, OneShardReducesByteForByteToPlainReplay) {
  const std::vector<TraceEvent> trace = zipf_keyed_trace(64, 31);
  const ReplayConfig cfg = two_tenant_config();

  std::vector<std::size_t> plain_order;
  const ReplayResult plain =
      replay_trace(
          trace, cfg, [&](std::span<const std::size_t> ids, std::uint64_t) {
            plain_order.insert(plain_order.end(), ids.begin(), ids.end());
          });

  ShardedReplayConfig scfg;
  scfg.replay = cfg;
  scfg.num_shards = 1;
  std::vector<std::size_t> sharded_order;
  const ShardedReplayResult sharded = replay_sharded(
      trace, scfg,
      [&](std::size_t shard, std::span<const std::size_t> ids,
          std::uint64_t) {
        EXPECT_EQ(shard, 0u);
        sharded_order.insert(sharded_order.end(), ids.begin(), ids.end());
      });

  EXPECT_EQ(sharded_order, plain_order);
  ASSERT_EQ(sharded.outcomes.size(), plain.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(sharded.outcomes[i].status, plain.outcomes[i].status) << i;
    EXPECT_EQ(sharded.outcomes[i].done_ns, plain.outcomes[i].done_ns) << i;
    EXPECT_EQ(sharded.outcomes[i].latency_ns, plain.outcomes[i].latency_ns)
        << i;
  }
  EXPECT_EQ(sharded.boundary_log(), "shard 0:\n" + plain.boundary_log());
  EXPECT_EQ(sharded.stats.completed, plain.stats.completed);
  EXPECT_EQ(sharded.stats.batches, plain.stats.batches);
  ASSERT_EQ(sharded.tenant_stats.size(), plain.tenant_stats.size());
  for (std::size_t t = 0; t < plain.tenant_stats.size(); ++t) {
    EXPECT_EQ(sharded.tenant_stats[t].completed, plain.tenant_stats[t].completed);
    EXPECT_EQ(sharded.tenant_stats[t].rejected, plain.tenant_stats[t].rejected);
  }
}

TEST(ShardedReplay, RoutesEveryRequestToItsRingOwnerAndReportsPerShard) {
  const std::size_t kShards = 4;
  const std::vector<TraceEvent> trace = zipf_keyed_trace(96, 41);
  ShardedReplayConfig scfg;
  scfg.replay = two_tenant_config();
  scfg.num_shards = kShards;

  std::vector<std::vector<std::size_t>> executed_on(kShards);
  const ShardedReplayResult r = replay_sharded(
      trace, scfg,
      [&](std::size_t shard, std::span<const std::size_t> ids,
          std::uint64_t) {
        ASSERT_LT(shard, kShards);
        executed_on[shard].insert(executed_on[shard].end(), ids.begin(),
                                  ids.end());
      });

  // Routing must agree with an independently constructed router: the map is
  // a pure function of (key, shard count, vnodes), not of replay state.
  const ShardRouter router(kShards, scfg.vnodes);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(r.shard_of[i], router.route(trace[i].key)) << "id " << i;
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    for (const std::size_t id : executed_on[s]) {
      EXPECT_EQ(r.shard_of[id], s) << "id " << id << " executed off-shard";
    }
  }

  std::uint64_t routed = 0;
  for (const std::uint64_t c : r.routed_per_shard()) routed += c;
  EXPECT_EQ(routed, trace.size());
  EXPECT_GE(r.imbalance(), 1.0);
  EXPECT_EQ(r.stats.completed + r.stats.rejected + r.stats.shed, trace.size());

  // The boundary log carries one section per shard, in shard order.
  const std::string log = r.boundary_log();
  std::size_t sections = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    if (log.find("shard " + std::to_string(s) + ":\n") != std::string::npos) {
      ++sections;
    }
  }
  EXPECT_EQ(sections, kShards);
}

}  // namespace
}  // namespace enw::serve
