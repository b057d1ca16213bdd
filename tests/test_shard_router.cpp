// Property tests for the consistent-hash shard router (serve/shard.h,
// core/hash.h) and the tenant-policy arithmetic.
//
// The router's two load-bearing properties are stated as bounds, not
// examples:
//   * spread — on uniform AND Zipf key streams, no shard's routed count
//     exceeds a stated multiple of the mean (Zipf's bound is looser: a hot
//     key pins its whole mass to one shard, and the bound prices that in);
//   * remap stability — adding a shard remaps only ~K/(N+1) keys and every
//     remapped key moves TO the new shard; removing one remaps exactly the
//     keys it owned; re-adding it restores the original routing exactly
//     (vnode points are a pure function of the member id).
// Routing is also pinned as a pure integer function: identical across
// repeated runs, thread-pool sizes, and kernel backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/hash.h"
#include "core/rng.h"
#include "serve/shard.h"
#include "testkit/diff.h"

namespace enw::serve {
namespace {

std::vector<std::size_t> route_all(const ShardRouter& router,
                                   std::span<const std::uint64_t> keys) {
  std::vector<std::size_t> owners;
  owners.reserve(keys.size());
  for (const std::uint64_t k : keys) owners.push_back(router.route(k));
  return owners;
}

std::vector<std::uint64_t> shard_counts(std::span<const std::size_t> owners,
                                        std::size_t num_shards) {
  std::vector<std::uint64_t> counts(num_shards, 0);
  for (const std::size_t s : owners) ++counts[s];
  return counts;
}

TEST(Mix64, IsABijectionStyleMixNotIdentity) {
  // Sanity anchors: mix64 must actually diffuse (no fixed point at small
  // inputs) and stay a pure function (same value across calls).
  EXPECT_NE(core::mix64(0), 0u);
  EXPECT_NE(core::mix64(1), 1u);
  EXPECT_EQ(core::mix64(12345), core::mix64(12345));
  EXPECT_NE(core::mix64(12345), core::mix64(12346));
}

TEST(ShardRouter, UniformKeysSpreadWithinBound) {
  const std::size_t kShards = 8;
  const std::size_t kKeys = 200000;
  const ShardRouter router(kShards);
  std::vector<std::uint64_t> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys[i] = i;  // ring mixes them

  const auto counts = shard_counts(route_all(router, keys), kShards);
  const double mean = static_cast<double>(kKeys) / kShards;
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], 0u) << "shard " << s << " owns no keys";
    EXPECT_LT(static_cast<double>(counts[s]), 1.6 * mean)
        << "shard " << s << " is " << static_cast<double>(counts[s]) / mean
        << "x the mean";
  }
  EXPECT_LT(shard_imbalance(counts), 1.6);
}

TEST(ShardRouter, ZipfKeysSpreadWithinStatedBound) {
  // Zipf(1.05) over 1M ids: the hottest id carries a few percent of all
  // traffic and lands entirely on one shard — that is inherent to
  // key-affinity routing, so the bound is looser than the uniform one.
  const std::size_t kShards = 8;
  const std::size_t kKeys = 200000;
  const ShardRouter router(kShards);
  const ZipfSampler zipf(1000000, 1.05);
  Rng rng(17);
  std::vector<std::uint64_t> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys[i] = static_cast<std::uint64_t>(zipf.sample(rng));
  }

  const auto counts = shard_counts(route_all(router, keys), kShards);
  const double mean = static_cast<double>(kKeys) / kShards;
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_LT(static_cast<double>(counts[s]), 2.6 * mean)
        << "shard " << s << " is " << static_cast<double>(counts[s]) / mean
        << "x the mean";
  }
  EXPECT_LT(shard_imbalance(counts), 2.6);
}

TEST(ShardRouter, AddShardRemapsOnlyItsShareAndOnlyTowardIt) {
  const std::size_t kShards = 8;
  const std::size_t kKeys = 100000;
  std::vector<std::uint64_t> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys[i] = i;

  ShardRouter router(kShards);
  const std::vector<std::size_t> before = route_all(router, keys);
  const std::size_t added = router.add_shard();
  EXPECT_EQ(added, kShards);
  EXPECT_EQ(router.num_shards(), kShards + 1);
  const std::vector<std::size_t> after = route_all(router, keys);

  std::size_t changed = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (after[i] == before[i]) continue;
    ++changed;
    EXPECT_EQ(after[i], added)
        << "key " << keys[i] << " remapped to an OLD shard — that is the "
           "reshuffle consistent hashing exists to prevent";
  }
  EXPECT_GT(changed, 0u);
  // Expected share is K/(N+1) ~ 11.1%; allow 2x for vnode arc variance.
  EXPECT_LT(changed, 2 * kKeys / (kShards + 1))
      << "a shard add remapped far more than its fair share";
}

TEST(ShardRouter, RemoveShardRemapsExactlyItsKeysAndReAddRestores) {
  const std::size_t kShards = 8;
  const std::size_t kVictim = 3;
  const std::size_t kKeys = 100000;
  std::vector<std::uint64_t> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys[i] = i * 2654435761ULL;

  ShardRouter router(kShards);
  const std::vector<std::size_t> before = route_all(router, keys);
  router.remove_shard(kVictim);
  EXPECT_EQ(router.num_shards(), kShards - 1);
  const std::vector<std::size_t> after = route_all(router, keys);

  for (std::size_t i = 0; i < kKeys; ++i) {
    if (before[i] == kVictim) {
      EXPECT_NE(after[i], kVictim);
    } else {
      EXPECT_EQ(after[i], before[i])
          << "key of a surviving shard moved on a remove";
    }
  }

  // Vnode points are a pure function of the member id, so re-adding the
  // victim restores exactly the original arcs — and the original routing.
  core::ConsistentHashRing ring(kShards);
  ring.remove(kVictim);
  ring.add(kVictim);
  for (std::size_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(ring.owner(keys[i]), before[i]);
    if (i > 256 && HasFailure()) break;  // don't spam 100k failures
  }
}

TEST(ShardRouter, RoutingIsPureAcrossRunsThreadsAndBackends) {
  const std::size_t kKeys = 20000;
  std::vector<std::uint64_t> keys(kKeys);
  Rng rng(23);
  const ZipfSampler zipf(100000, 1.05);
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys[i] = static_cast<std::uint64_t>(zipf.sample(rng));
  }

  const ShardRouter base(4);
  const std::vector<std::size_t> expect = route_all(base, keys);
  // Fresh router, same config: identical map (no hidden per-instance state).
  EXPECT_EQ(route_all(ShardRouter(4), keys), expect);
  // Pool size and kernel backend are execution details the pure integer
  // routing function must not see.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    testkit::ThreadScope scope(threads);
    for (const core::KernelBackend* backend : core::available_backends()) {
      testkit::BackendScope bscope(backend->name());
      EXPECT_EQ(route_all(ShardRouter(4), keys), expect)
          << "threads=" << threads << " backend=" << backend->name();
    }
  }
}

TEST(ShardRouter, VnodeDensityTightensUniformSpread) {
  // More vnodes -> arc shares concentrate around 1/N. Pin the direction with
  // a coarse comparison so a vnode regression (e.g. one point per member)
  // cannot slip through.
  const std::size_t kShards = 8;
  const std::size_t kKeys = 200000;
  std::vector<std::uint64_t> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys[i] = i;

  const ShardRouter sparse(kShards, /*vnodes=*/1);
  const ShardRouter dense(kShards, /*vnodes=*/256);
  const double sparse_imb =
      shard_imbalance(shard_counts(route_all(sparse, keys), kShards));
  const double dense_imb =
      shard_imbalance(shard_counts(route_all(dense, keys), kShards));
  EXPECT_LT(dense_imb, sparse_imb);
  EXPECT_LT(dense_imb, 1.35);
}

// --- tenant policy arithmetic ----------------------------------------------

TEST(TenantPolicy, QuotaIsFlooredShareWithOneSlotMinimum) {
  TenantPolicy t;
  t.queue_share = 1.0;
  EXPECT_EQ(tenant_quota(t, 1024), 1024u);
  t.queue_share = 0.25;
  EXPECT_EQ(tenant_quota(t, 8), 2u);
  t.queue_share = 0.26;
  EXPECT_EQ(tenant_quota(t, 8), 2u);  // floor, not round
  t.queue_share = 0.001;
  EXPECT_EQ(tenant_quota(t, 100), 1u)  // floor(0.1) = 0 -> progress floor
      << "every tenant must always own at least one slot";
}

TEST(TenantPolicy, ExactRatioSharesBuyTheirFullSlotCount) {
  // 0.1 and 0.3 are not exactly representable: the product 0.1 * 30
  // evaluates to 2.999...96, and a raw floor silently costs the tenant the
  // slot its config promised. The epsilon-nudged floor restores these while
  // leaving genuinely fractional shares (0.15 * 10 = 1.5) floored.
  TenantPolicy t;
  t.queue_share = 0.1;
  EXPECT_EQ(tenant_quota(t, 30), 3u);
  EXPECT_EQ(tenant_quota(t, 10), 1u);
  t.queue_share = 0.3;
  EXPECT_EQ(tenant_quota(t, 10), 3u);
  t.queue_share = 0.7;
  EXPECT_EQ(tenant_quota(t, 10), 7u);
  t.queue_share = 0.15;
  EXPECT_EQ(tenant_quota(t, 10), 1u);  // 1.5 is a true fraction: still floors
  // The nudge must never push a full share past the queue itself.
  t.queue_share = 1.0;
  EXPECT_EQ(tenant_quota(t, 7), 7u);
}

TEST(TenantPolicy, InvalidShareIsRejected) {
  TenantPolicy t;
  t.queue_share = 0.0;
  EXPECT_THROW(tenant_quota(t, 8), std::invalid_argument);
  t.queue_share = 1.5;
  EXPECT_THROW(tenant_quota(t, 8), std::invalid_argument);
}

TEST(ShardImbalance, MaxOverMeanWithZeroForDegenerateInputs) {
  EXPECT_EQ(shard_imbalance({}), 0.0);
  const std::vector<std::uint64_t> zeros = {0, 0, 0};
  EXPECT_EQ(shard_imbalance(zeros), 0.0);
  const std::vector<std::uint64_t> even = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(shard_imbalance(even), 1.0);
  const std::vector<std::uint64_t> skew = {30, 10, 10, 10};
  EXPECT_DOUBLE_EQ(shard_imbalance(skew), 2.0);
}

}  // namespace
}  // namespace enw::serve
