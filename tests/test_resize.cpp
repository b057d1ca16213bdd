// Live shard resizing (recsys::ShardedEmbeddingTable add_shard/remove_shard,
// serve::MultiShardServer live resize, serve::replay_sharded scripted
// resizes).
//
// Three layers of the same contract:
//  1. Data: a resize migrates exactly the ring-delta rows — codes and scales
//     copied bit-for-bit, warm rows travelling — and nothing else; post-
//     resize state equals fresh construction over the new member set, so
//     add-then-remove restores routing and placement bitwise, and pooled
//     lookups stay bitwise-equal to the unsharded quantized gather through
//     any resize history.
//  2. Live serving: a 4 -> 5 -> 4 resize under concurrent DLRM traffic gives
//     every request exactly one typed terminal status (complete-on-old or
//     reroute-to-new, never dropped, never mixed) with results bitwise-equal
//     to the offline predict_batch reference. Runs under the TSan CI job at
//     ENW_THREADS=8.
//  3. Replay: a scripted add + remove mid-trace yields a boundary log (resize
//     header lines, per-batch shard tags) and served outputs byte-identical
//     across ENW_THREADS {1, 8}, with routing decisions a pure function of
//     (trace, config).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hash.h"
#include "core/rng.h"
#include "data/click_log.h"
#include "recsys/dlrm.h"
#include "recsys/embedding_table.h"
#include "recsys/sharded_table.h"
#include "serve/backends.h"
#include "serve/multi_shard.h"
#include "serve/replay.h"
#include "serve/shard.h"
#include "serve/shard_replay.h"
#include "tensor/matrix.h"
#include "testkit/diff.h"

namespace enw {
namespace {

using recsys::EmbeddingTable;
using recsys::QuantizedEmbeddingTable;
using recsys::ShardedEmbeddingTable;
using testkit::ThreadScope;

EmbeddingTable make_table(std::size_t rows, std::size_t dim,
                          std::uint64_t seed) {
  Rng rng(seed);
  return EmbeddingTable(rows, dim, rng);
}

// Ragged Zipf index lists (duplicates inside and across samples) — the
// traffic that warms the hot tiers before a resize.
std::vector<std::vector<std::size_t>> make_lists(std::size_t batch,
                                                 std::size_t rows,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(rows, 1.0);
  std::vector<std::vector<std::size_t>> lists(batch);
  for (auto& list : lists) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 7.0));
    for (std::size_t i = 0; i < n; ++i) list.push_back(zipf.sample(rng));
  }
  return lists;
}

void expect_bitwise_vs_unsharded(ShardedEmbeddingTable& t,
                                 const QuantizedEmbeddingTable& ref,
                                 std::uint64_t seed, const char* where) {
  const auto lists = make_lists(100, t.rows(), seed);
  Vector sharded(t.dim()), unsharded(t.dim());
  for (const auto& list : lists) {
    t.lookup_sum(list, sharded);
    ref.lookup_sum(list, unsharded);
    ASSERT_EQ(0, std::memcmp(sharded.data(), unsharded.data(),
                             unsharded.size() * sizeof(float)))
        << where;
  }
}

// --- data layer: ring-delta migration properties ----------------------------

TEST(ResizeTable, AddShardMovesExactlyTheRingDeltaRowsAndNothingElse) {
  const std::size_t kRows = 600;
  const EmbeddingTable source = make_table(kRows, 16, 3);
  for (int bits : {8, 4, 2}) {
    ShardedEmbeddingTable t(source, bits, /*num_shards=*/4, /*hot_rows=*/16);
    const QuantizedEmbeddingTable ref(source, bits);

    // Warm the hot tiers with Zipf traffic so the resize has warm rows to
    // carry (and so post-resize bitwiseness is checked against dirty caches,
    // not fresh ones).
    expect_bitwise_vs_unsharded(t, ref, 7, "pre-resize");

    // The independently computed ring delta names the rows that must move.
    core::ConsistentHashRing before(4);
    core::ConsistentHashRing after = before;
    after.add(4);
    std::vector<std::uint64_t> keys(kRows);
    for (std::size_t r = 0; r < kRows; ++r) keys[r] = r;
    const std::vector<std::uint64_t> delta =
        core::ring_delta(before, after, keys);
    ASSERT_GT(delta.size(), 0u);
    ASSERT_LT(delta.size(), kRows / 2) << "delta should be ~R/(N+1)";

    std::vector<std::size_t> owner_before(kRows);
    for (std::size_t r = 0; r < kRows; ++r) owner_before[r] = t.shard_of(r);

    const ShardedEmbeddingTable::ResizeStats stats = t.add_shard();
    EXPECT_EQ(stats.shard, 4u);
    EXPECT_EQ(stats.rows_moved, delta.size())
        << "bits=" << bits << ": resize moved a different set than the ring "
        << "delta names";
    EXPECT_GT(stats.warm_rows_moved, 0u)
        << "warm rows should travel with their rows";
    EXPECT_LE(stats.warm_rows_moved, stats.rows_moved);

    // Exactly the delta rows changed owner, all TO the new shard.
    const std::set<std::uint64_t> moved(delta.begin(), delta.end());
    for (std::size_t r = 0; r < kRows; ++r) {
      if (moved.count(r)) {
        EXPECT_EQ(t.shard_of(r), 4u) << "bits=" << bits << " row " << r;
        EXPECT_NE(owner_before[r], 4u);
      } else {
        EXPECT_EQ(t.shard_of(r), owner_before[r])
            << "bits=" << bits << " row " << r << " moved between survivors";
      }
    }
    EXPECT_EQ(t.num_shards(), 5u);
    EXPECT_EQ(t.shard_slots(), 5u);

    // Values never change: still bitwise the unsharded gather.
    expect_bitwise_vs_unsharded(t, ref, 8, "post-add");
  }
}

TEST(ResizeTable, AddThenRemoveRestoresRoutingAndPlacementBitwise) {
  const std::size_t kRows = 600;
  const EmbeddingTable source = make_table(kRows, 16, 4);
  for (int bits : {8, 4, 2}) {
    ShardedEmbeddingTable t(source, bits, /*num_shards=*/4, /*hot_rows=*/16);
    const QuantizedEmbeddingTable ref(source, bits);
    expect_bitwise_vs_unsharded(t, ref, 9, "pre-resize");

    const auto add_stats = t.add_shard();
    const auto remove_stats = t.remove_shard(4);
    // Symmetric migration: removing the shard moves back exactly the rows
    // the add moved in (vnode points are a pure function of member id).
    EXPECT_EQ(remove_stats.rows_moved, add_stats.rows_moved);
    EXPECT_EQ(t.num_shards(), 4u);
    EXPECT_EQ(t.shard_slots(), 5u);  // ids are never reused
    EXPECT_FALSE(t.shard_live(4));
    EXPECT_THROW((void)t.shard(4), std::exception);

    // Bitwise restoration: placement AND cold-tier bytes equal a fresh
    // 4-shard partition of the same source.
    const ShardedEmbeddingTable fresh(source, bits, 4, 16);
    for (std::size_t r = 0; r < kRows; ++r) {
      ASSERT_EQ(t.shard_of(r), fresh.shard_of(r))
          << "bits=" << bits << " row " << r;
    }
    const std::vector<std::uint64_t> counts = t.rows_per_shard();
    const std::vector<std::uint64_t> fresh_counts = fresh.rows_per_shard();
    ASSERT_EQ(counts.size(), 5u);
    EXPECT_EQ(counts[4], 0u);
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(counts[s], fresh_counts[s]) << "bits=" << bits;
      const QuantizedEmbeddingTable& got = t.shard(s).cold();
      const QuantizedEmbeddingTable& want = fresh.shard(s).cold();
      ASSERT_EQ(got.rows(), want.rows()) << "bits=" << bits << " shard " << s;
      const auto got_codes = got.codes();
      const auto want_codes = want.codes();
      ASSERT_EQ(got_codes.size(), want_codes.size());
      EXPECT_EQ(0, std::memcmp(got_codes.data(), want_codes.data(),
                               want_codes.size()))
          << "bits=" << bits << " shard " << s << " cold codes differ";
      const auto got_scales = got.scales();
      const auto want_scales = want.scales();
      ASSERT_EQ(got_scales.size(), want_scales.size());
      EXPECT_EQ(0, std::memcmp(got_scales.data(), want_scales.data(),
                               want_scales.size() * sizeof(float)))
          << "bits=" << bits << " shard " << s << " scales differ";
    }
    expect_bitwise_vs_unsharded(t, ref, 10, "post-add-then-remove");
  }
}

TEST(ResizeTable, RemoveShardSpillsItsRowsToSurvivorsOnly) {
  const std::size_t kRows = 600;
  const EmbeddingTable source = make_table(kRows, 16, 5);
  ShardedEmbeddingTable t(source, 8, /*num_shards=*/4, /*hot_rows=*/16);
  const QuantizedEmbeddingTable ref(source, 8);

  std::vector<std::size_t> owner_before(kRows);
  for (std::size_t r = 0; r < kRows; ++r) owner_before[r] = t.shard_of(r);
  const std::uint64_t victim_rows = t.rows_per_shard()[1];

  const auto stats = t.remove_shard(1);
  EXPECT_EQ(stats.shard, 1u);
  EXPECT_EQ(stats.rows_moved, victim_rows)
      << "a remove must move exactly the victim's rows";
  for (std::size_t r = 0; r < kRows; ++r) {
    if (owner_before[r] == 1) {
      EXPECT_NE(t.shard_of(r), 1u) << "row " << r;
    } else {
      EXPECT_EQ(t.shard_of(r), owner_before[r])
          << "row " << r << " moved between survivors";
    }
  }
  EXPECT_EQ(t.num_shards(), 3u);
  EXPECT_FALSE(t.shard_live(1));
  expect_bitwise_vs_unsharded(t, ref, 11, "post-remove");

  // The slot is retired for good: a second remove of the same id throws.
  EXPECT_THROW(t.remove_shard(1), std::exception);
}

// --- live serving: resize under concurrent traffic --------------------------

recsys::DlrmConfig small_dlrm_config() {
  recsys::DlrmConfig cfg;
  cfg.num_tables = 4;
  cfg.rows_per_table = 300;
  cfg.embed_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  return cfg;
}

TEST(ResizeLive, MidTrafficResizeServesEveryRequestTypedAndBitwise) {
  ThreadScope scope(8);
  const std::size_t kClients = 8;
  const std::size_t kPerClient = 16;
  const std::size_t n = kClients * kPerClient;

  // Replicas for every shard id the test will ever use (4 initial + 1
  // added), all built from one seed: numerically identical, so
  // complete-on-old and reroute-to-new return the same bits.
  const recsys::DlrmConfig mcfg = small_dlrm_config();
  std::vector<std::unique_ptr<recsys::Dlrm>> replicas;
  for (std::size_t s = 0; s < 5; ++s) {
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

  serve::MultiShardConfig cfg;
  cfg.num_shards = 4;
  cfg.shard.max_batch = 8;
  cfg.shard.max_wait_ns = 200000;  // 200us window
  cfg.shard.queue_capacity = n;
  serve::TenantPolicy tenant;
  tenant.queue_share = 1.0;
  tenant.admission = serve::AdmissionPolicy::kBlock;
  cfg.tenants = {tenant};

  const auto factory = [&](std::size_t s) {
    return serve::dlrm_backend(*replicas[s]);
  };
  serve::MultiShardServer<data::ClickSample, float> ms(cfg, factory);

  using Reply = serve::MultiShardServer<data::ClickSample, float>::Reply;
  std::vector<Reply> replies(n);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t id = c * kPerClient + i;
        replies[id] =
            ms.submit(samples[id], serve::click_routing_key(samples[id]));
      }
    });
  }

  // Resize mid-traffic from the control plane: grow 4 -> 5, then retire
  // shard 2 (draining its admitted requests, re-routing its waiters).
  const std::size_t added = ms.add_shard(factory);
  EXPECT_EQ(added, 4u);
  ms.remove_shard(2);

  for (std::thread& t : clients) t.join();
  ms.shutdown();

  // Every request reached exactly one typed terminal status — and since the
  // server never shut down mid-submit, that status is kOk with the bitwise
  // offline value (a rerouted request is served once, by its new owner).
  for (std::size_t id = 0; id < n; ++id) {
    ASSERT_EQ(replies[id].status, serve::Status::kOk)
        << "id " << id << ": " << serve::status_name(replies[id].status);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(replies[id].value),
              std::bit_cast<std::uint32_t>(offline[id]))
        << "served result differs from offline reference for id " << id;
  }

  const serve::ServerStats total = ms.stats();
  EXPECT_EQ(total.completed, n)
      << "every request must complete exactly once (never double-served)";
  EXPECT_EQ(total.errors, 0u);
  EXPECT_EQ(ms.num_shards(), 4u);
  EXPECT_EQ(ms.shard_slots(), 5u);
  EXPECT_FALSE(ms.shard_live(2));
  EXPECT_TRUE(ms.shard_live(4));

  const std::vector<serve::ResizeRecord> history = ms.resize_history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_TRUE(history[0].added);
  EXPECT_EQ(history[0].shard, 4u);
  EXPECT_FALSE(history[1].added);
  EXPECT_EQ(history[1].shard, 2u);

  // Post-resize routing sends nothing to the retired shard.
  const auto reply = ms.submit(samples[0], serve::click_routing_key(samples[0]));
  EXPECT_EQ(reply.status, serve::Status::kShutdown);  // server is shut down
}

TEST(ResizeLive, DeadTargetShardLeavesMembershipAndServingUnchanged) {
  ThreadScope scope(8);
  const recsys::DlrmConfig mcfg = small_dlrm_config();
  std::vector<std::unique_ptr<recsys::Dlrm>> replicas;
  for (std::size_t s = 0; s < 4; ++s) {
    Rng rng(5);
    replicas.push_back(std::make_unique<recsys::Dlrm>(mcfg, rng));
  }
  data::ClickLogConfig lcfg;
  lcfg.num_dense = mcfg.num_dense;
  lcfg.num_tables = mcfg.num_tables;
  lcfg.rows_per_table = mcfg.rows_per_table;
  const data::ClickLogGenerator gen(lcfg);
  Rng drng(7);
  const std::size_t n = 32;
  const std::vector<data::ClickSample> samples = gen.batch(n, drng);
  const std::vector<float> offline = replicas[0]->predict_batch(samples);

  serve::MultiShardConfig cfg;
  cfg.num_shards = 4;
  cfg.shard.max_batch = 8;
  cfg.shard.max_wait_ns = 100000;
  cfg.shard.queue_capacity = n;
  const auto factory = [&](std::size_t s) {
    return serve::dlrm_backend(*replicas[s]);
  };
  serve::MultiShardServer<data::ClickSample, float> ms(cfg, factory);

  // The target is dead: its backend cannot be built. The add must fail
  // all-or-nothing — before the ring changes, before any key remaps.
  using Srv = serve::MultiShardServer<data::ClickSample, float>;
  EXPECT_THROW(ms.add_shard([](std::size_t) -> Srv::BatchFn {
                 throw std::runtime_error("target shard unreachable");
               }),
               std::runtime_error);
  EXPECT_EQ(ms.num_shards(), 4u);
  EXPECT_EQ(ms.shard_slots(), 4u);
  EXPECT_TRUE(ms.resize_history().empty());
  EXPECT_EQ(ms.rerouted(), 0u);

  // Serving continues bitwise as if nothing happened.
  for (std::size_t id = 0; id < n; ++id) {
    const auto reply =
        ms.submit(samples[id], serve::click_routing_key(samples[id]));
    ASSERT_EQ(reply.status, serve::Status::kOk) << "id " << id;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(reply.value),
              std::bit_cast<std::uint32_t>(offline[id]))
        << "id " << id;
  }
  ms.shutdown();
}

// --- replay: scripted resize determinism ------------------------------------

struct ScriptedResizeRun {
  std::vector<float> probs;
  std::string log;
  std::vector<serve::ResizeBoundary> resizes;
  std::vector<std::uint8_t> live;
  std::vector<std::size_t> shard_of;
  std::uint64_t completed = 0;
};

ScriptedResizeRun run_scripted_resize_replay(
    std::uint64_t seed, std::size_t threads,
    std::span<const data::ClickSample> samples,
    std::span<const serve::TraceEvent> trace,
    const std::vector<serve::ResizeEvent>& resizes) {
  ThreadScope scope(threads);
  recsys::DlrmConfig cfg = small_dlrm_config();
  // Replicas for every slot the script can create (4 initial + adds).
  std::vector<std::unique_ptr<recsys::Dlrm>> replicas;
  for (std::size_t s = 0; s < 4 + resizes.size(); ++s) {
    Rng rng(seed);
    replicas.push_back(std::make_unique<recsys::Dlrm>(cfg, rng));
  }

  serve::ShardedReplayConfig scfg;
  scfg.replay.serve.max_batch = 8;
  scfg.replay.serve.max_wait_ns = 100000;
  scfg.replay.service_ns = 50000;
  scfg.resizes = resizes;
  scfg.num_shards = 4;

  ScriptedResizeRun run;
  run.probs.assign(samples.size(), 0.0f);
  const serve::ShardedReplayResult result = serve::replay_sharded(
      trace, scfg,
      [&](std::size_t shard, std::span<const std::size_t> ids,
          std::uint64_t) {
        std::vector<data::ClickSample> batch;
        batch.reserve(ids.size());
        for (std::size_t id : ids) batch.push_back(samples[id]);
        const std::vector<float> probs = replicas[shard]->predict_batch(batch);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          run.probs[ids[i]] = probs[i];
        }
      });
  run.log = result.boundary_log();
  run.resizes = result.resizes;
  run.live = result.live;
  run.shard_of = result.shard_of;
  run.completed = result.stats.completed;
  return run;
}

TEST(ResizeReplay, ScriptedResizeLogAndOutputsByteIdenticalAcrossThreads) {
  const std::size_t n = 64;
  data::ClickLogConfig log_cfg;
  log_cfg.num_tables = 4;
  log_cfg.rows_per_table = 300;
  const data::ClickLogGenerator gen(log_cfg);
  Rng data_rng(13);
  const std::vector<data::ClickSample> samples = gen.batch(n, data_rng);

  Rng trace_rng(14);
  std::vector<serve::TraceEvent> trace =
      serve::poisson_trace(n, 30000.0, 0, trace_rng);
  for (std::size_t i = 0; i < n; ++i) {
    trace[i].key = serve::click_routing_key(samples[i]);
  }

  // Script an add at the first third and a remove at the second third —
  // both instants are guaranteed to activate because arrivals exist at or
  // after them.
  const std::uint64_t t_add = trace[n / 3].arrival_ns;
  const std::uint64_t t_remove = trace[2 * n / 3].arrival_ns;
  const std::vector<serve::ResizeEvent> resizes = {
      {t_add, serve::ResizeEvent::Kind::kAdd, 4},
      {t_remove, serve::ResizeEvent::Kind::kRemove, 1},
  };

  // Offline reference: one replica, whole trace as one batch.
  const std::vector<float> offline = [&] {
    ThreadScope scope(1);
    Rng rng(1);
    return recsys::Dlrm(small_dlrm_config(), rng).predict_batch(samples);
  }();

  const ScriptedResizeRun base =
      run_scripted_resize_replay(1, 1, samples, trace, resizes);
  const ScriptedResizeRun wide =
      run_scripted_resize_replay(1, 8, samples, trace, resizes);

  // Byte-identity across thread counts: the log, the routing, the resize
  // boundaries, and every served bit.
  EXPECT_EQ(base.log, wide.log)
      << "scripted-resize boundary log moved with ENW_THREADS";
  EXPECT_EQ(base.shard_of, wide.shard_of);
  const auto div = testkit::first_divergence(
      testkit::as_row(std::span<const float>(base.probs)),
      testkit::as_row(std::span<const float>(wide.probs)));
  EXPECT_TRUE(div.ok()) << div.report();

  // Both resizes activated and are reported in the log's header lines, and
  // the added shard's batches sit under its own section header (batch lines
  // carry no shard tag).
  ASSERT_EQ(base.resizes.size(), 2u);
  EXPECT_TRUE(base.resizes[0].added);
  EXPECT_EQ(base.resizes[0].shard, 4u);
  EXPECT_EQ(base.resizes[0].at_ns, t_add);
  EXPECT_FALSE(base.resizes[1].added);
  EXPECT_EQ(base.resizes[1].shard, 1u);
  EXPECT_GT(base.resizes[0].moved, 0u) << "the add remapped no arrivals";
  EXPECT_NE(base.log.find("resize 0: t=" + std::to_string(t_add) +
                          "ns op=add shard=4 moved="),
            std::string::npos)
      << base.log;
  EXPECT_NE(base.log.find("op=remove shard=1"), std::string::npos) << base.log;
  EXPECT_NE(base.log.find("shard 4:\nbatch "), std::string::npos) << base.log;
  EXPECT_EQ(base.log.find(" s="), std::string::npos) << base.log;
  EXPECT_EQ(base.live, (std::vector<std::uint8_t>{1, 0, 1, 1, 1}));

  // Routing is time-varying but pure: arrivals before the add route on the
  // original 4-shard ring; arrivals at/after the remove route on the final
  // {0, 2, 3, 4} ring.
  serve::ShardRouter initial(4);
  serve::ShardRouter final_router(4);
  (void)final_router.add_shard();
  final_router.remove_shard(1);
  for (std::size_t i = 0; i < n; ++i) {
    if (trace[i].arrival_ns < t_add) {
      EXPECT_EQ(base.shard_of[i], initial.route(trace[i].key)) << "id " << i;
    } else if (trace[i].arrival_ns >= t_remove) {
      EXPECT_EQ(base.shard_of[i], final_router.route(trace[i].key))
          << "id " << i;
      EXPECT_NE(base.shard_of[i], 1u) << "id " << i << " routed to the "
                                         "removed shard after its removal";
    }
  }

  // Every request reaches a typed terminal outcome; with no deadlines and
  // ample queues that outcome is completion — bitwise the offline reference.
  EXPECT_EQ(base.completed, n);
  const auto off_div = testkit::first_divergence(
      testkit::as_row(std::span<const float>(base.probs)),
      testkit::as_row(std::span<const float>(offline)));
  EXPECT_TRUE(off_div.ok())
      << "served outputs diverged from offline: " << off_div.report();
}

TEST(ResizeReplay, ResizeScriptedAfterLastArrivalNeverActivates) {
  std::vector<serve::TraceEvent> trace(8);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].arrival_ns = 1000 * i;
    trace[i].key = i * 2654435761ULL;
  }
  serve::ShardedReplayConfig scfg;
  scfg.replay.serve.max_batch = 4;
  scfg.resizes = {{1000000000, serve::ResizeEvent::Kind::kAdd, 2}};
  scfg.num_shards = 2;
  const serve::ShardedReplayResult r = serve::replay_sharded(
      trace, scfg,
      [](std::size_t, std::span<const std::size_t>, std::uint64_t) {});
  EXPECT_TRUE(r.resizes.empty());
  EXPECT_EQ(r.shards.size(), 2u);
  EXPECT_EQ(r.live, (std::vector<std::uint8_t>{1, 1}));
  // No activation, no resize lines.
  const std::string log = r.boundary_log();
  EXPECT_EQ(log.find("resize"), std::string::npos);
  EXPECT_EQ(log.find(" s="), std::string::npos);
}

}  // namespace
}  // namespace enw
