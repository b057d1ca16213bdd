// enw::serve under the testkit fault campaign's process-level faults.
//
// The serving contract under faults is "definite outcome": every in-flight
// request ends in a result or a typed error — never a hang, never a silent
// drop, never a stale value. Two faults are injected mid-batch through the
// same enw::fault hooks the campaign drives:
//
//   kAllocFail  — a one-shot Matrix allocation failure fires inside the
//                 batch (collation or GEMM); the whole batch gets
//                 Status::kError and the server keeps serving afterwards;
//   kPoolDelay  — pool workers stall before each chunk, stretching the
//                 execute phase; everything still completes with correct
//                 (bitwise-reference) results.
//
// The sharded replay harness runs its own campaign here: a shard dying
// mid-trace (every exec on it throwing after its first batch) must yield
// typed kError outcomes for exactly that shard's post-death requests,
// bitwise-reference results everywhere else, and a byte-reproducible
// incident report (boundary log + status counts) across identical runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/model_io.h"
#include "core/rng.h"
#include "nn/digital_linear.h"
#include "nn/mlp.h"
#include "recsys/embedding_table.h"
#include "recsys/sharded_table.h"
#include "serve/backends.h"
#include "serve/multi_shard.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "serve/shard_replay.h"
#include "tensor/matrix.h"
#include "testkit/fault.h"

namespace enw::serve {
namespace {

nn::Mlp make_mlp(std::uint64_t seed) {
  nn::MlpConfig cfg;
  cfg.dims = {64, 32, 10};
  cfg.hidden_activation = nn::Activation::kRelu;
  Rng rng(seed);
  return nn::Mlp(cfg, nn::DigitalLinear::factory(rng));
}

Matrix random_inputs(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, dim);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal());
  }
  return m;
}

TEST(ServeFault, AllocFailureMidBatchYieldsTypedErrorsAndRecovers) {
  const std::size_t n = 4;
  const nn::Mlp net = make_mlp(1);
  const Matrix inputs = random_inputs(n, 64, 2);

  ServeConfig cfg;
  cfg.max_batch = n;
  cfg.max_wait_ns = 1000000;  // 1 ms window
  Server<Vector, Vector> srv(cfg, mlp_logits_backend(net));

  std::vector<Server<Vector, Vector>::Reply> replies(n);
  {
    // One-shot: the very next Matrix allocation (the collation matrix of the
    // first flushed batch) throws std::bad_alloc inside the backend.
    testkit::FaultSpec spec;
    spec.kind = testkit::FaultKind::kAllocFail;
    spec.alloc_countdown = 0;
    testkit::ScopedProcessFault fault(spec);

    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < n; ++i) {
      clients.emplace_back([&, i] {
        const Vector x(inputs.row(i).begin(), inputs.row(i).end());
        replies[i] = srv.submit(x);
      });
    }
    for (std::thread& t : clients) t.join();
  }

  // Every request reached a definite terminal status; the batch the fault
  // landed in reported the typed error (at least one, all of them if the
  // four coalesced into one batch — scheduling decides the grouping).
  std::size_t errors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(replies[i].status == Status::kOk ||
                replies[i].status == Status::kError)
        << "id " << i << ": " << status_name(replies[i].status);
    errors += replies[i].status == Status::kError ? 1 : 0;
  }
  EXPECT_GE(errors, 1u) << "the armed allocation failure never fired";
  const ServerStats mid = srv.stats();
  EXPECT_EQ(mid.errors, errors);
  EXPECT_EQ(mid.completed + mid.errors, n);

  // The failure is one-shot and fail-stop: the server serves the next batch.
  const Vector x0(inputs.row(0).begin(), inputs.row(0).end());
  const auto recovered = srv.submit(x0);
  ASSERT_EQ(recovered.status, Status::kOk);
  const Matrix offline = net.infer_batch(inputs);
  EXPECT_EQ(std::memcmp(recovered.value.data(), offline.row(0).data(),
                        offline.cols() * sizeof(float)),
            0);
  srv.shutdown();
}

TEST(ServeFault, PoolDelayMidBatchStillCompletesEveryRequest) {
  const std::size_t n = 8;
  const nn::Mlp net = make_mlp(3);
  const Matrix inputs = random_inputs(n, 64, 4);
  const Matrix offline = net.infer_batch(inputs);

  ServeConfig cfg;
  cfg.max_batch = n;
  cfg.max_wait_ns = 1000000;
  Server<Vector, Vector> srv(cfg, mlp_logits_backend(net));

  std::vector<Server<Vector, Vector>::Reply> replies(n);
  {
    testkit::FaultSpec spec;
    spec.kind = testkit::FaultKind::kPoolDelay;
    spec.delay_us = 200;  // stall every pool chunk mid-execute
    testkit::ScopedProcessFault fault(spec);

    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < n; ++i) {
      clients.emplace_back([&, i] {
        const Vector x(inputs.row(i).begin(), inputs.row(i).end());
        replies[i] = srv.submit(x);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  srv.shutdown();

  // Slower, but neither dropped nor corrupted: every request completes with
  // the bitwise offline-reference result (the delay fault is BENIGN by the
  // determinism contract).
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(replies[i].status, Status::kOk) << "id " << i;
    EXPECT_EQ(std::memcmp(replies[i].value.data(), offline.row(i).data(),
                          offline.cols() * sizeof(float)),
              0)
        << "id " << i;
  }
  const ServerStats stats = srv.stats();
  EXPECT_EQ(stats.completed, n);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

// --- shard-death campaign (replay_sharded typed faults) ---------------------

/// One deterministic run of the campaign: shard kDead serves its first batch
/// and then dies (every later exec on it throws). Replay types each failed
/// batch kError, live-Server style, and the other shards keep serving.
/// Returns everything a byte-reproducibility diff needs.
struct ShardDeathRun {
  std::string report;               // boundary log + status/count summary
  std::vector<Status> statuses;     // per request, trace order
  Matrix outputs;                   // per request, zero rows for kError
  std::vector<std::size_t> shard_of;
  std::size_t dead_batches = 0;     // batches the dead shard was offered
};

ShardDeathRun run_shard_death_campaign(const nn::Mlp& net, const Matrix& inputs,
                                       std::span<const TraceEvent> trace,
                                       std::size_t dead_shard) {
  ShardedReplayConfig scfg;
  scfg.replay.serve.max_batch = 4;
  scfg.replay.serve.max_wait_ns = 100000;
  scfg.replay.service_ns = 50000;
  scfg.num_shards = 4;

  ShardDeathRun run;
  run.outputs = Matrix(trace.size(), 10);  // zero-filled; kError rows stay 0
  const auto backend = mlp_logits_backend(net);
  std::vector<std::size_t> batches_on(scfg.num_shards, 0);

  const ShardedReplayResult result = replay_sharded(
      trace, scfg,
      [&](std::size_t shard, std::span<const std::size_t> ids,
          std::uint64_t) {
        ++batches_on[shard];
        if (shard == dead_shard && batches_on[shard] > 1) {
          throw std::runtime_error("shard died mid-trace");
        }
        std::vector<Vector> batch;
        for (std::size_t id : ids) {
          batch.emplace_back(inputs.row(id).begin(), inputs.row(id).end());
        }
        const std::vector<Vector> outs = backend(batch);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          std::copy(outs[i].begin(), outs[i].end(), run.outputs.row(ids[i]).begin());
        }
      });

  run.statuses.reserve(result.outcomes.size());
  for (const RequestOutcome& o : result.outcomes) run.statuses.push_back(o.status);
  run.shard_of = result.shard_of;
  run.dead_batches = batches_on[dead_shard];
  run.report = result.boundary_log();
  run.report += "completed=" + std::to_string(result.stats.completed) +
                " errors=" + std::to_string(result.stats.errors) +
                " rejected=" + std::to_string(result.stats.rejected) +
                " shed=" + std::to_string(result.stats.shed) + "\n";
  return run;
}

TEST(ServeFault, DeadShardYieldsTypedErrorsOnlyForItsRequests) {
  const std::size_t n = 64;
  const std::size_t kDead = 2;
  const nn::Mlp net = make_mlp(7);
  const Matrix inputs = random_inputs(n, 64, 8);
  const Matrix offline = net.infer_batch(inputs);

  std::vector<TraceEvent> trace(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace[i].arrival_ns = 5000 * i;
    trace[i].key = i * 2654435761ULL;  // spread keys across the ring
  }

  const ShardDeathRun run = run_shard_death_campaign(net, inputs, trace, kDead);
  ASSERT_GE(run.dead_batches, 2u)
      << "the dead shard never got a second batch — the fault never fired";

  // Typed-error containment: kError exactly on the dead shard's post-death
  // requests; every other request completes with the bitwise offline result.
  std::size_t errors = 0;
  std::size_t dead_shard_oks = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(run.statuses[i] == Status::kOk ||
                run.statuses[i] == Status::kError)
        << "id " << i << ": " << status_name(run.statuses[i]);
    if (run.statuses[i] == Status::kError) {
      ++errors;
      EXPECT_EQ(run.shard_of[i], kDead)
          << "id " << i << " got kError but was not routed to the dead shard";
    } else {
      dead_shard_oks += run.shard_of[i] == kDead ? 1 : 0;
      EXPECT_EQ(std::memcmp(run.outputs.row(i).data(), offline.row(i).data(),
                            offline.cols() * sizeof(float)),
                0)
          << "id " << i << " completed with a non-reference result";
    }
  }
  EXPECT_GE(errors, 1u);
  EXPECT_GE(dead_shard_oks, 1u)
      << "the dead shard's pre-death batch should have completed";

  // Byte-reproducible report: a second identical run produces the identical
  // boundary log, summary line, statuses, and output bytes.
  const ShardDeathRun rerun = run_shard_death_campaign(net, inputs, trace, kDead);
  EXPECT_EQ(rerun.report, run.report);
  EXPECT_EQ(rerun.statuses, run.statuses);
  EXPECT_EQ(std::memcmp(rerun.outputs.data(), run.outputs.data(),
                        run.outputs.size() * sizeof(float)),
            0);
}

TEST(ServeFault, ReplayPropagatesBackendFailureLoudly) {
  // A backend failure is never silently-missing outputs: the replay types
  // the failing batch kError, as Server::run_batch does, and keeps serving.
  // The one-shot allocation failure fires in the first wave's batch; the
  // second wave completes with the bitwise offline result.
  const nn::Mlp net = make_mlp(5);
  const Matrix inputs = random_inputs(8, 64, 6);
  const Matrix offline = net.infer_batch(inputs);
  std::vector<TraceEvent> trace(8);  // two bursts of four, 1 ms apart
  for (std::size_t i = 4; i < 8; ++i) trace[i].arrival_ns = 1000000;
  ReplayConfig cfg;
  cfg.serve.max_batch = 4;
  Matrix served(8, net.output_dim());

  testkit::FaultSpec spec;
  spec.kind = testkit::FaultKind::kAllocFail;
  spec.alloc_countdown = 0;
  testkit::ScopedProcessFault fault(spec);

  const auto backend = mlp_logits_backend(net);
  const ReplayResult r = replay_trace(
      trace, cfg, [&](std::span<const std::size_t> ids, std::uint64_t) {
        std::vector<Vector> batch;
        for (std::size_t id : ids) {
          batch.emplace_back(inputs.row(id).begin(), inputs.row(id).end());
        }
        const std::vector<Vector> outs = backend(batch);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          std::copy(outs[i].begin(), outs[i].end(), served.row(ids[i]).begin());
        }
      });

  ASSERT_EQ(r.batches.size(), 2u);
  for (std::size_t id = 0; id < 4; ++id) {
    EXPECT_EQ(r.outcomes[id].status, Status::kError) << "id " << id;
  }
  for (std::size_t id = 4; id < 8; ++id) {
    EXPECT_EQ(r.outcomes[id].status, Status::kOk) << "id " << id;
    EXPECT_EQ(std::memcmp(served.row(id).data(), offline.row(id).data(),
                          offline.cols() * sizeof(float)),
              0)
        << "id " << id;
  }
  EXPECT_EQ(r.stats.errors, 4u);
  EXPECT_EQ(r.stats.completed, 4u);
  EXPECT_EQ(r.stats.batches, 1u) << "a failed batch is not an executed one";
  EXPECT_EQ(r.tenant_stats[0].errors, 4u);
}

// --- resize fault campaign: migration faults vs the all-or-nothing commit ---

/// One deterministic run of the resize fault campaign. Two legs:
///
///   alloc-fail  — a one-shot allocation failure armed at the migration
///                 alloc site fires inside ShardedEmbeddingTable::add_shard;
///                 the strong exception guarantee must hold (placement and
///                 every pooled lookup bitwise unchanged) and the SAME
///                 resize must succeed once the fault clears. Runs on the
///                 table-only path: concurrent traffic would consume the
///                 one-shot countdown nondeterministically.
///
///   dead-target — MultiShardServer::add_shard with a factory that throws
///                 (the target shard is unreachable) while clients are
///                 submitting; membership, routing, and every served value
///                 stay unchanged, all-or-nothing.
///
/// Every report field is a pure function of the fixed seeds, so the report
/// is byte-reproducible across runs — the test diffs two in-process runs and
/// scripts/run_resize_campaign.sh diffs two whole-process runs in CI.
std::string run_resize_fault_campaign() {
  std::string report = "resize-fault-campaign v1\n";

  // Leg 1: alloc failure mid-migration.
  {
    Rng rng(41);
    const recsys::EmbeddingTable source(600, 16, rng);
    recsys::ShardedEmbeddingTable table(source, 8, /*num_shards=*/4,
                                        /*hot_rows=*/16);
    const recsys::QuantizedEmbeddingTable ref(source, 8);

    // Warm the hot tiers so the failed resize is attempted against dirty
    // cache state, then snapshot the placement it must preserve.
    Rng traffic(42);
    std::vector<std::size_t> list(6);
    Vector got(table.dim()), want(table.dim());
    for (std::size_t q = 0; q < 50; ++q) {
      for (auto& idx : list) {
        idx = static_cast<std::size_t>(traffic.uniform(0.0, 599.0));
      }
      table.lookup_sum(list, got);
    }
    std::vector<std::size_t> owner_before(table.rows());
    for (std::size_t r = 0; r < table.rows(); ++r) {
      owner_before[r] = table.shard_of(r);
    }

    bool threw = false;
    {
      testkit::FaultSpec spec;
      spec.kind = testkit::FaultKind::kAllocFail;
      spec.alloc_countdown = 0;  // the first migration allocation fails
      testkit::ScopedProcessFault fault(spec);
      try {
        table.add_shard();
      } catch (const std::bad_alloc&) {
        threw = true;
      }
    }

    // All-or-nothing: no partially-migrated row is observable and the
    // source shards keep serving every key bitwise.
    bool unchanged = table.num_shards() == 4 && table.shard_slots() == 4;
    for (std::size_t r = 0; r < table.rows() && unchanged; ++r) {
      unchanged = table.shard_of(r) == owner_before[r];
    }
    bool bitwise = true;
    Rng check(43);
    for (std::size_t q = 0; q < 50 && bitwise; ++q) {
      for (auto& idx : list) {
        idx = static_cast<std::size_t>(check.uniform(0.0, 599.0));
      }
      table.lookup_sum(list, got);
      ref.lookup_sum(list, want);
      bitwise = std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(float)) == 0;
    }

    // The fault was one-shot: the identical resize now commits.
    const auto retry = table.add_shard();
    const bool retried = table.num_shards() == 5 && retry.shard == 4;

    report += "leg=alloc-fail threw=" + std::to_string(threw) +
              " unchanged=" + std::to_string(unchanged) +
              " lookups_bitwise=" + std::to_string(bitwise) +
              " retry_ok=" + std::to_string(retried) +
              " retry_rows_moved=" + std::to_string(retry.rows_moved) +
              " retry_warm_rows_moved=" + std::to_string(retry.warm_rows_moved) +
              "\n";
  }

  // Leg 2: dead target shard under live traffic.
  {
    MultiShardConfig cfg;
    cfg.num_shards = 4;
    cfg.shard.max_batch = 4;
    cfg.shard.max_wait_ns = 100000;
    cfg.shard.queue_capacity = 32;
    // Every shard computes the same pure function — the numeric-identity
    // invariant that makes "which shard served it" unobservable in values.
    const auto factory = [](std::size_t) {
      return [](std::span<const int> batch) {
        std::vector<int> out;
        out.reserve(batch.size());
        for (const int x : batch) out.push_back(x * 2);
        return out;
      };
    };
    MultiShardServer<int, int> ms(cfg, factory);

    const std::size_t n = 32;
    std::vector<int> values(n, 0);
    std::vector<Status> statuses(n, Status::kError);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = c * (n / 4); i < (c + 1) * (n / 4); ++i) {
          const auto reply =
              ms.submit(static_cast<int>(i), /*key=*/i * 2654435761ULL);
          statuses[i] = reply.status;
          values[i] = reply.value;
        }
      });
    }

    bool threw = false;
    try {
      ms.add_shard([](std::size_t) -> MultiShardServer<int, int>::BatchFn {
        throw std::runtime_error("target shard unreachable");
      });
    } catch (const std::runtime_error&) {
      threw = true;
    }
    for (std::thread& t : clients) t.join();
    ms.shutdown();

    bool all_ok = true;
    bool all_bitwise = true;
    for (std::size_t i = 0; i < n; ++i) {
      all_ok = all_ok && statuses[i] == Status::kOk;
      all_bitwise = all_bitwise && values[i] == static_cast<int>(i) * 2;
    }
    report += "leg=dead-target threw=" + std::to_string(threw) +
              " shards=" + std::to_string(ms.num_shards()) +
              " slots=" + std::to_string(ms.shard_slots()) +
              " resizes=" + std::to_string(ms.resize_history().size()) +
              " all_ok=" + std::to_string(all_ok) +
              " values_bitwise=" + std::to_string(all_bitwise) + "\n";
  }
  return report;
}

TEST(ServeFault, ResizeFaultCampaignIsAllOrNothingAndByteReproducible) {
  const std::string run1 = run_resize_fault_campaign();
  // Every leg reached its typed, all-or-nothing outcome.
  EXPECT_NE(run1.find("leg=alloc-fail threw=1 unchanged=1 lookups_bitwise=1 "
                      "retry_ok=1"),
            std::string::npos)
      << run1;
  EXPECT_NE(run1.find("leg=dead-target threw=1 shards=4 slots=4 resizes=0 "
                      "all_ok=1 values_bitwise=1"),
            std::string::npos)
      << run1;

  // Byte-reproducible: a second identical campaign produces the identical
  // report (scripts/run_resize_campaign.sh repeats this across processes).
  const std::string run2 = run_resize_fault_campaign();
  EXPECT_EQ(run1, run2);

  // CI hook: persist the report so two whole-process runs can be diffed.
  if (const char* out = std::getenv("ENW_RESIZE_CAMPAIGN_OUT")) {
    std::ofstream f(out, std::ios::binary | std::ios::trunc);
    f << run1;
  }
}

// --- artifact fault campaign: corrupt model files vs the swap path ----------

namespace fs = std::filesystem;

/// Save `model`, flip one blob byte, and return the corrupted path.
std::string save_corrupted_mlp(const nn::Mlp& model, const std::string& path) {
  artifact::save_mlp(model, path);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  f.seekp(size - 1);
  char last = 0;
  f.seekg(size - 1);
  f.get(last);
  last = static_cast<char>(last ^ 0x20);
  f.seekp(size - 1);
  f.put(last);
  f.close();
  return path;
}

TEST(ServeFault, CorruptedArtifactIsRejectedLoudlyAtLoad) {
  const nn::Mlp model = make_mlp(21);
  const std::string path = "fault_corrupt_mlp.enw";
  save_corrupted_mlp(model, path);
  // The rejection is TYPED and happens at open — no partially-built model,
  // no silent fallback, in either load mode.
  for (artifact::LoadMode mode :
       {artifact::LoadMode::kMap, artifact::LoadMode::kOwned}) {
    try {
      artifact::load_mlp(path, mode);
      ADD_FAILURE() << "corrupted artifact load unexpectedly succeeded";
    } catch (const artifact::ArtifactError& e) {
      EXPECT_EQ(e.code(), artifact::ArtifactErrorCode::kChecksumMismatch);
    }
  }
  fs::remove(path);
}

TEST(ServeFault, FailedSwapLeavesEveryShardServingTheOldVersion) {
  // Deployment rollback drill: version 0 serves from a published artifact;
  // the version-1 artifact is corrupt. The all-or-nothing swap must throw
  // out of the factory on shard 0 and leave ALL shards on version 0,
  // serving results bitwise-equal to before the attempt.
  const nn::Mlp v0 = make_mlp(31);
  const std::string good_path = "fault_swap_v0.enw";
  const std::string bad_path = "fault_swap_v1.enw";
  artifact::save_mlp(v0, good_path);
  save_corrupted_mlp(make_mlp(32), bad_path);

  const Matrix inputs = random_inputs(8, 64, 33);
  const Matrix offline = v0.infer_batch(inputs);

  MultiShardConfig cfg;
  cfg.num_shards = 3;
  cfg.shard.max_batch = 4;
  cfg.shard.max_wait_ns = 100000;
  cfg.shard.queue_capacity = 16;
  // Every shard replica loads from the SAME artifact — the deployment move
  // the zero-copy loader is for (one mapping, page cache shared).
  auto replica_factory = [&](const std::string& path) {
    return [path](std::size_t) {
      auto loaded = artifact::load_mlp(path);
      // The backend closes over the loaded model (and its artifact pin).
      auto model = std::make_shared<artifact::Loaded<nn::Mlp>>(std::move(loaded));
      return [model](std::span<const Vector> batch) {
        Matrix x(batch.size(), model->model.input_dim());
        for (std::size_t r = 0; r < batch.size(); ++r) {
          std::copy(batch[r].begin(), batch[r].end(), x.row(r).begin());
        }
        const Matrix y = model->model.infer_batch(x);
        std::vector<Vector> out;
        for (std::size_t r = 0; r < y.rows(); ++r) {
          out.emplace_back(y.row(r).begin(), y.row(r).end());
        }
        return out;
      };
    };
  };

  MultiShardServer<Vector, Vector> srv(cfg, replica_factory(good_path));
  const auto serve_all = [&] {
    for (std::size_t i = 0; i < inputs.rows(); ++i) {
      const Vector x(inputs.row(i).begin(), inputs.row(i).end());
      const auto reply = srv.submit(x, /*key=*/i * 7919);
      ASSERT_EQ(reply.status, Status::kOk) << "id " << i;
      ASSERT_EQ(reply.value.size(), offline.cols());
      EXPECT_EQ(std::memcmp(reply.value.data(), offline.row(i).data(),
                            offline.cols() * sizeof(float)),
                0)
          << "id " << i;
    }
  };
  serve_all();

  // The swap fails loudly in the factory (corrupt artifact) — and fails
  // ATOMICALLY: no shard moved off version 0.
  EXPECT_THROW(srv.swap_backend(replica_factory(bad_path), /*version=*/1),
               artifact::ArtifactError);
  for (std::uint64_t v : srv.backend_versions()) EXPECT_EQ(v, 0u);
  serve_all();  // still bitwise the version-0 reference

  // Repairing the artifact lets the SAME swap succeed.
  artifact::save_mlp(v0, bad_path);
  srv.swap_backend(replica_factory(bad_path), /*version=*/1);
  for (std::uint64_t v : srv.backend_versions()) EXPECT_EQ(v, 1u);
  serve_all();  // same weights, same bits, now as version 1
  srv.shutdown();
  fs::remove(good_path);
  fs::remove(bad_path);
}

}  // namespace
}  // namespace enw::serve
