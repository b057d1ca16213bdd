// The serving state machine (serve/serve_core.h), driven without threads or
// clocks: every event carries its own instant, so each test pins one rule
// exactly. The live Server and replay both run this core; their own suites
// (test_serve, test_serve_sharded) check the code around it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "serve/serve.h"
#include "serve/serve_core.h"
#include "serve/shard.h"

namespace enw::serve {
namespace {

using Core = ServeCore<int>;
using Ids = std::vector<int>;

ServeConfig config(std::size_t max_batch, std::size_t capacity,
                   AdmissionPolicy admission = AdmissionPolicy::kReject) {
  ServeConfig cfg;
  cfg.max_batch = max_batch;
  cfg.max_wait_ns = 100;
  cfg.queue_capacity = capacity;
  cfg.admission = admission;
  return cfg;
}

TenantPolicy tenant(double share, AdmissionPolicy admission,
                    std::uint64_t deadline_ns = 0) {
  TenantPolicy t;
  t.queue_share = share;
  t.admission = admission;
  t.deadline_ns = deadline_ns;
  return t;
}

TEST(ServeCore, QueueBoundRejectsOrBlocksByTheTenantsMode) {
  // Capacity 2, two full-share tenants: the third arrival finds no room
  // whatever its tenant holds, and its tenant's mode decides.
  Core core(config(4, 2), {tenant(1.0, AdmissionPolicy::kReject),
                           tenant(1.0, AdmissionPolicy::kBlock)});
  EXPECT_EQ(core.arrive(0, 0, 0, 0), Admission::kQueued);
  EXPECT_EQ(core.arrive(1, 0, 0, 0), Admission::kQueued);
  EXPECT_EQ(core.arrive(2, 0, 0, 0), Admission::kRejected);
  EXPECT_EQ(core.arrive(3, 1, 0, 0), Admission::kBlocked);
  EXPECT_EQ(core.queued(), 2u);
  EXPECT_EQ(core.blocked(), 1u);
  EXPECT_EQ(core.held(1), 0u) << "a blocked request holds no slot";
  EXPECT_EQ(core.stats().submitted, 4u);
  EXPECT_EQ(core.stats().rejected, 1u);
  EXPECT_EQ(core.stats().queue_peak, 2u);
  EXPECT_EQ(core.tenant_stats()[0].rejected, 1u);
  EXPECT_EQ(core.tenant_stats()[1].rejected, 0u);
}

TEST(ServeCore, QuotaCountsQueuedAndExecutingRequests) {
  // Quota floor(0.25 * 8) = 2: a collated (executing) request still holds
  // its slot, so the tenant is at quota with one queued and one executing.
  Core core(config(1, 8), {tenant(0.25, AdmissionPolicy::kReject),
                           tenant(0.5, AdmissionPolicy::kReject)});
  EXPECT_EQ(core.arrive(0, 0, 0, 0), Admission::kQueued);
  const Core::Batch running = core.collate(0, false);
  EXPECT_EQ(running.executed, Ids{0});
  EXPECT_EQ(core.arrive(1, 0, 0, 1), Admission::kQueued);
  EXPECT_EQ(core.held(0), 2u);
  EXPECT_EQ(core.arrive(2, 0, 0, 2), Admission::kRejected)
      << "the queue has room, the tenant does not";
  EXPECT_EQ(core.arrive(3, 1, 0, 3), Admission::kQueued)
      << "a neighbour's quota is its own";
  EXPECT_EQ(core.tenant_stats()[0].rejected, 1u);
}

TEST(ServeCore, BlockedFifoSkipsATenantStillAtQuota) {
  // Capacity 1, quota 1 for every tenant. Tenant 0's request 0 executes, so
  // its request 1 blocks on quota although the queue has room; request 2
  // (tenant 1) then fills the queue and request 3 (tenant 2) blocks behind
  // request 1. The collation that frees the queue slot passes over request
  // 1, whose tenant is still at quota, and admits request 3.
  Core core(config(1, 1), {tenant(1.0, AdmissionPolicy::kBlock),
                           tenant(1.0, AdmissionPolicy::kBlock),
                           tenant(1.0, AdmissionPolicy::kBlock)});
  ASSERT_EQ(core.arrive(0, 0, 0, 0), Admission::kQueued);
  const Core::Batch first = core.collate(0, false);
  ASSERT_EQ(core.arrive(1, 0, 0, 1), Admission::kBlocked);
  ASSERT_EQ(core.arrive(2, 1, 0, 2), Admission::kQueued);
  ASSERT_EQ(core.arrive(3, 2, 0, 3), Admission::kBlocked);

  EXPECT_EQ(core.collate(200, false).executed, Ids{2});
  EXPECT_EQ(core.blocked(), 1u);
  EXPECT_EQ(core.held(2), 1u) << "request 3 took the freed queue slot";

  // Request 0 completes: its tenant drops below quota, but the queue is full
  // again, so request 1 waits for the next collation, first in line.
  core.finish(first, false, 300);
  EXPECT_EQ(core.blocked(), 1u);
  EXPECT_EQ(core.collate(300, false).executed, Ids{3});
  EXPECT_EQ(core.blocked(), 0u);
  EXPECT_EQ(core.collate(400, false).executed, Ids{1});
}

TEST(ServeCore, ShedRequestFreesItsSlotAtItsCollation) {
  // Quota 1. Request 0 (deadline 50) is shed at the window collation at
  // 100; its slot frees there, so the blocked request 1 is admitted at that
  // collation and its window starts at 100.
  Core core(config(4, 4), {tenant(0.25, AdmissionPolicy::kBlock)});
  ASSERT_EQ(core.arrive(0, 0, 50, 0), Admission::kQueued);
  ASSERT_EQ(core.arrive(1, 0, 0, 10), Admission::kBlocked);
  const Core::Batch b = core.collate(100, false);
  EXPECT_EQ(b.shed, Ids{0});
  EXPECT_TRUE(b.executed.empty());
  EXPECT_EQ(core.held(0), 1u);
  EXPECT_EQ(core.queued(), 1u);
  EXPECT_EQ(core.stats().shed, 1u);
  EXPECT_EQ(core.tenant_stats()[0].shed, 1u);
  EXPECT_FALSE(core.due(199, false).due);
  EXPECT_EQ(core.due(199, false).wake_ns, 200u);
}

TEST(ServeCore, CompletionFreesItsSlotAndAdmitsTheBlocked) {
  Core core(config(1, 4), {tenant(0.25, AdmissionPolicy::kBlock)});
  ASSERT_EQ(core.arrive(0, 0, 0, 0), Admission::kQueued);
  const Core::Batch b = core.collate(0, false);
  ASSERT_EQ(core.arrive(1, 0, 0, 5), Admission::kBlocked);
  EXPECT_EQ(core.held(0), 1u);
  core.finish(b, false, 1000);
  EXPECT_EQ(core.blocked(), 0u);
  EXPECT_EQ(core.queued(), 1u);
  EXPECT_EQ(core.held(0), 1u) << "request 1 now holds the freed slot";
  EXPECT_EQ(core.stats().completed, 1u);
  EXPECT_EQ(core.stats().batches, 1u);
  EXPECT_EQ(core.tenant_stats()[0].completed, 1u);

  // A failed batch frees its slots the same way and counts errors.
  const Core::Batch failed = core.collate(1000, false);
  core.finish(failed, true, 2000);
  EXPECT_EQ(core.held(0), 0u);
  EXPECT_EQ(core.stats().errors, 1u);
  EXPECT_EQ(core.stats().batches, 1u) << "a failed batch is not recorded";
  EXPECT_EQ(core.tenant_stats()[0].errors, 1u);
}

TEST(ServeCore, EmptyTableIsOneTenantWithNoQuota) {
  // With an empty table the default tenant takes the config's admission mode
  // and is held only by the queue bound: an executing batch of 2 plus a full
  // queue of 2 is more than a full-share quota of capacity 2 would allow.
  Core core(config(2, 2, AdmissionPolicy::kBlock), {});
  ASSERT_EQ(core.tenants().size(), 1u);
  EXPECT_EQ(core.tenants()[0].admission, AdmissionPolicy::kBlock);
  ASSERT_EQ(core.arrive(0, 0, 0, 0), Admission::kQueued);
  ASSERT_EQ(core.arrive(1, 0, 0, 0), Admission::kQueued);
  const Core::Batch b = core.collate(0, false);
  EXPECT_EQ(b.reason, FlushReason::kSize);
  EXPECT_EQ(core.arrive(2, 0, 0, 1), Admission::kQueued);
  EXPECT_EQ(core.arrive(3, 0, 0, 1), Admission::kQueued);
  EXPECT_EQ(core.held(0), 4u);
  EXPECT_EQ(core.arrive(4, 0, 0, 1), Admission::kBlocked);

  // The same table spelled out (one full-share tenant) holds a quota of 2.
  Core quota(config(2, 2, AdmissionPolicy::kBlock),
             {tenant(1.0, AdmissionPolicy::kBlock)});
  ASSERT_EQ(quota.arrive(0, 0, 0, 0), Admission::kQueued);
  ASSERT_EQ(quota.arrive(1, 0, 0, 0), Admission::kQueued);
  (void)quota.collate(0, false);
  EXPECT_EQ(quota.arrive(2, 0, 0, 1), Admission::kBlocked);
}

TEST(ServeCore, DeadlineStampWinsElseTenantDeadlineCountsFromArrival) {
  // Tenant 0 has no deadline, tenant 1 a relative 50. At the size collation
  // at 160: request 1 (arrived 100, so deadline 150) is shed; request 2
  // (arrived 120, deadline 170) runs; request 3's own stamp 140 wins over
  // its tenant's 130 + 50 and is shed; request 0 never expires.
  Core core(config(4, 8), {tenant(1.0, AdmissionPolicy::kReject),
                           tenant(1.0, AdmissionPolicy::kReject, 50)});
  ASSERT_EQ(core.arrive(0, 0, 0, 100), Admission::kQueued);
  ASSERT_EQ(core.arrive(1, 1, 0, 100), Admission::kQueued);
  ASSERT_EQ(core.arrive(2, 1, 0, 120), Admission::kQueued);
  ASSERT_EQ(core.arrive(3, 1, 140, 130), Admission::kQueued);
  const Core::Batch b = core.collate(160, false);
  EXPECT_EQ(b.reason, FlushReason::kSize);
  EXPECT_EQ(b.executed, (Ids{0, 2}));
  EXPECT_EQ(b.shed, (Ids{1, 3}));
  EXPECT_EQ(core.tenant_stats()[1].shed, 2u);
}

TEST(ServeCore, DrainFlushesTheQueueAndCancelsBlockedArrivals) {
  // A draining collation flushes a partial batch at once (kDrain), and
  // cancel_blocked hands back every blocked arrival, in FIFO order, for the
  // caller to resolve as kShutdown; none of them held or takes a slot.
  Core core(config(4, 2, AdmissionPolicy::kBlock), {});
  ASSERT_EQ(core.arrive(0, 0, 0, 0), Admission::kQueued);
  ASSERT_EQ(core.arrive(1, 0, 0, 0), Admission::kQueued);
  ASSERT_EQ(core.arrive(2, 0, 0, 1), Admission::kBlocked);
  ASSERT_EQ(core.arrive(3, 0, 0, 2), Admission::kBlocked);
  EXPECT_FALSE(core.due(10, false).due);
  EXPECT_EQ(core.cancel_blocked(), (Ids{2, 3}));
  EXPECT_EQ(core.blocked(), 0u);
  const Core::Batch b = core.collate(10, /*draining=*/true);
  EXPECT_EQ(b.reason, FlushReason::kDrain);
  EXPECT_EQ(b.executed, (Ids{0, 1}));
  EXPECT_EQ(core.queued(), 0u) << "cancelled arrivals are never admitted";
  core.finish(b, false, 20);
  EXPECT_EQ(core.queued(), 0u);
  EXPECT_EQ(core.held(0), 0u);
  EXPECT_EQ(core.stats().completed, 2u);
}

TEST(ServeCore, BatchRunsOnTheVersionCurrentAtItsCollation) {
  Core core(config(1, 4), {});
  ASSERT_EQ(core.arrive(0, 0, 0, 0), Admission::kQueued);
  ASSERT_EQ(core.arrive(1, 0, 0, 0), Admission::kQueued);
  const Core::Batch first = core.collate(0, false);
  core.swap(7);  // while the first batch executes
  EXPECT_EQ(first.version, 0u);
  EXPECT_EQ(core.version(), 7u);
  core.finish(first, false, 10);
  const Core::Batch second = core.collate(10, false);
  EXPECT_EQ(second.version, 7u);
  EXPECT_EQ(second.executed, Ids{1});
}

TEST(ServeCore, RejectsBadConfigAndUnknownTenant) {
  EXPECT_THROW((void)Core(config(0, 4), {}), std::invalid_argument);
  EXPECT_THROW((void)Core(config(4, 0), {}), std::invalid_argument);
  EXPECT_THROW(
      (void)Core(config(4, 4), {tenant(0.0, AdmissionPolicy::kReject)}),
      std::invalid_argument);
  Core core(config(4, 4), {});
  EXPECT_THROW(core.arrive(0, 1, 0, 0), std::invalid_argument);
  EXPECT_THROW(core.collate(0, false), std::invalid_argument)
      << "an empty queue is never due";
}

}  // namespace
}  // namespace enw::serve
