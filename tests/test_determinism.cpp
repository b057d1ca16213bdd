// Determinism sweep (testkit satellite): train the paper's 784-256-10 MLP
// and run a few-shot episode under every combination of seed {1, 2, 3} and
// thread count {1, 2, 8}, and assert that losses, final weights, and episode
// accuracy are BITWISE identical across thread counts for each seed. The
// MLP and DLRM training runs are also repeated under every registered
// kernel backend and must match `reference` bitwise.
//
// This is the library-wide contract the thread pool's pure chunk partition
// and the one fp32 kernel definition exist to uphold: parallelism and the
// kernel backend are execution details, never numeric ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/backend.h"
#include "core/rng.h"
#include "data/click_log.h"
#include "data/dataset.h"
#include "data/synthetic_mnist.h"
#include "data/synthetic_omniglot.h"
#include "mann/fewshot.h"
#include "mann/similarity_search.h"
#include "nn/activation.h"
#include "nn/digital_linear.h"
#include "nn/mlp.h"
#include "recsys/dlrm.h"
#include "serve/backends.h"
#include "serve/replay.h"
#include "serve/shard_replay.h"
#include "testkit/diff.h"

namespace enw {
namespace {

using testkit::as_row;
using testkit::first_divergence;

constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr std::size_t kTrainSteps = 3;
constexpr float kLr = 0.05f;

struct TrainResult {
  std::vector<float> losses;    // per-step batch loss + final mean loss
  std::vector<Matrix> weights;  // per-layer final weights
};

TrainResult run_training(std::uint64_t seed, std::size_t threads,
                         const data::Dataset& ds) {
  testkit::ThreadScope scope(threads);
  nn::MlpConfig cfg;
  cfg.dims = {784, 256, 10};
  cfg.hidden_activation = nn::Activation::kRelu;
  Rng rng(seed);
  nn::Mlp net(cfg, nn::DigitalLinear::factory(rng));
  TrainResult r;
  for (std::size_t step = 0; step < kTrainSteps; ++step) {
    r.losses.push_back(net.train_batch(ds.features, ds.labels, kLr));
  }
  r.losses.push_back(static_cast<float>(net.mean_loss(ds.features, ds.labels)));
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    r.weights.push_back(net.layer(l).ops().weights());
  }
  return r;
}

void expect_same_training(const TrainResult& base, const TrainResult& run,
                          const std::string& what) {
  const auto loss_div =
      first_divergence(as_row(std::span<const float>(base.losses)),
                       as_row(std::span<const float>(run.losses)));
  EXPECT_TRUE(loss_div.ok()) << what << ": " << loss_div.report();
  ASSERT_EQ(base.weights.size(), run.weights.size());
  for (std::size_t l = 0; l < base.weights.size(); ++l) {
    const auto w_div = first_divergence(base.weights[l], run.weights[l]);
    EXPECT_TRUE(w_div.ok()) << what << " layer " << l << ": " << w_div.report();
  }
}

TEST(Determinism, MlpTrainingBitwiseAcrossSeedsAndThreads) {
  const data::SyntheticMnist mnist;
  const data::Dataset ds = mnist.train_set(64);
  for (std::uint64_t seed : kSeeds) {
    const TrainResult base = run_training(seed, 1, ds);
    for (std::size_t threads : kThreadCounts) {
      if (threads == 1) continue;
      expect_same_training(base, run_training(seed, threads, ds),
                           "seed " + std::to_string(seed) + " threads " +
                               std::to_string(threads));
    }
  }
  // Batched training (matmul / matmul_nt / matmul_tn_acc) trains the same
  // weights on every backend.
  const TrainResult ref = [&] {
    testkit::BackendScope pin("reference");
    return run_training(1, 1, ds);
  }();
  for (const core::KernelBackend* backend : core::available_backends()) {
    if (backend == core::find_backend("reference")) continue;
    testkit::BackendScope pin(backend->name());
    expect_same_training(ref, run_training(1, 1, ds),
                         std::string("backend ") + backend->name());
  }
}

double run_fewshot(std::uint64_t seed, std::size_t threads,
                   const data::SyntheticOmniglot& ds) {
  testkit::ThreadScope scope(threads);
  mann::ExactSearch search(ds.feature_dim());
  mann::FewShotConfig cfg;
  cfg.n_way = 3;
  cfg.k_shot = 1;
  cfg.queries_per_class = 2;
  cfg.episodes = 2;
  cfg.class_lo = 0;
  cfg.class_hi = ds.num_classes();
  Rng rng(seed);
  const auto embed = [](std::span<const float> x) {
    return Vector(x.begin(), x.end());
  };
  return mann::evaluate_fewshot(ds, embed, search, cfg, rng).accuracy;
}

struct DlrmResult {
  std::vector<float> serve_probs;  // predict_batch before training
  std::vector<float> losses;       // per-sample train_step losses (one epoch)
  std::vector<float> after_probs;  // predict_batch after the epoch
};

DlrmResult run_dlrm(std::uint64_t seed, std::size_t threads,
                    std::span<const data::ClickSample> samples) {
  testkit::ThreadScope scope(threads);
  recsys::DlrmConfig cfg;
  cfg.num_tables = 4;
  cfg.rows_per_table = 300;
  cfg.embed_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  Rng rng(seed);
  recsys::Dlrm model(cfg, rng);
  DlrmResult r;
  r.serve_probs = model.predict_batch(samples);
  for (const auto& s : samples) {
    r.losses.push_back(model.train_step(s, 0.01f));
  }
  r.after_probs = model.predict_batch(samples);
  return r;
}

void expect_same_dlrm(const DlrmResult& base, const DlrmResult& run,
                      const std::string& what) {
  for (const auto& [name, lhs, rhs] :
       {std::tuple{"serve", &base.serve_probs, &run.serve_probs},
        std::tuple{"train-loss", &base.losses, &run.losses},
        std::tuple{"post-train serve", &base.after_probs, &run.after_probs}}) {
    const auto div = first_divergence(as_row(std::span<const float>(*lhs)),
                                      as_row(std::span<const float>(*rhs)));
    EXPECT_TRUE(div.ok()) << what << " " << name << ": " << div.report();
  }
}

// The recsys leg of the contract: batched DLRM serving AND a training epoch
// (sparse embedding updates included) are bitwise-stable across thread
// counts. Serving uses the GEMM paths directly; training exercises the
// gather/scatter embedding updates whose order must not depend on threads.
TEST(Determinism, DlrmServeAndTrainBitwiseAcrossSeedsAndThreads) {
  data::ClickLogConfig log_cfg;
  log_cfg.num_tables = 4;
  log_cfg.rows_per_table = 300;
  const data::ClickLogGenerator gen(log_cfg);
  Rng data_rng(11);
  const std::vector<data::ClickSample> samples = gen.batch(32, data_rng);
  for (std::uint64_t seed : kSeeds) {
    expect_same_dlrm(run_dlrm(seed, 1, samples), run_dlrm(seed, 8, samples),
                     "seed " + std::to_string(seed));
  }
  // Per-sample train_step (matvec / matvec_transposed / rank1_update)
  // trains the same model on every backend.
  const DlrmResult ref = [&] {
    testkit::BackendScope pin("reference");
    return run_dlrm(1, 1, samples);
  }();
  for (const core::KernelBackend* backend : core::available_backends()) {
    if (backend == core::find_backend("reference")) continue;
    testkit::BackendScope pin(backend->name());
    expect_same_dlrm(ref, run_dlrm(1, 1, samples),
                     std::string("backend ") + backend->name());
  }
}

struct ShardedReplayRun {
  std::vector<float> probs;  // one served probability per request, trace order
  std::string log;           // canonical per-shard boundary log
  std::uint64_t completed = 0;
};

/// Replay a Zipf-keyed DLRM trace through the sharded harness: one model
/// replica per shard, every replica built from the same seed (the sharded
/// deployment's numeric-identity invariant).
ShardedReplayRun run_sharded_dlrm_replay(
    std::uint64_t seed, std::size_t threads, std::size_t shards,
    std::span<const data::ClickSample> samples,
    std::span<const serve::TraceEvent> trace) {
  testkit::ThreadScope scope(threads);
  recsys::DlrmConfig cfg;
  cfg.num_tables = 4;
  cfg.rows_per_table = 300;
  cfg.embed_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  std::vector<std::unique_ptr<recsys::Dlrm>> replicas;
  for (std::size_t s = 0; s < shards; ++s) {
    Rng rng(seed);
    replicas.push_back(std::make_unique<recsys::Dlrm>(cfg, rng));
  }

  serve::ShardedReplayConfig scfg;
  scfg.replay.serve.max_batch = 8;
  scfg.replay.serve.max_wait_ns = 100000;
  scfg.replay.service_ns = 50000;
  scfg.num_shards = shards;

  ShardedReplayRun run;
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
  run.completed = result.stats.completed;
  return run;
}

// The sharded-serving leg of the contract: replaying a Zipf-keyed DLRM trace
// through consistent-hash sharding is bitwise-stable across thread counts
// (identical boundary logs AND served outputs for shards {1, 4}) and every
// served output matches the offline predict_batch reference for ANY shard
// count — partitioning moves requests between replicas, never changes a bit.
TEST(Determinism, ShardedDlrmReplayBitwiseAcrossThreadsAndShardCounts) {
  const std::size_t n = 48;
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

  // Offline reference: one replica, whole trace as a single batch.
  const std::vector<float> offline = [&] {
    testkit::ThreadScope scope(1);
    recsys::DlrmConfig cfg;
    cfg.num_tables = 4;
    cfg.rows_per_table = 300;
    cfg.embed_dim = 8;
    cfg.bottom_hidden = {16};
    cfg.top_hidden = {16};
    Rng rng(1);
    return recsys::Dlrm(cfg, rng).predict_batch(samples);
  }();

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const ShardedReplayRun base =
        run_sharded_dlrm_replay(1, 1, shards, samples, trace);
    const ShardedReplayRun wide =
        run_sharded_dlrm_replay(1, 8, shards, samples, trace);
    EXPECT_EQ(base.completed, n) << "shards " << shards;
    EXPECT_EQ(base.log, wide.log)
        << "shards " << shards << ": batch boundaries moved with ENW_THREADS";
    const auto div =
        first_divergence(as_row(std::span<const float>(base.probs)),
                         as_row(std::span<const float>(wide.probs)));
    EXPECT_TRUE(div.ok()) << "shards " << shards << ": " << div.report();
    const auto off_div =
        first_divergence(as_row(std::span<const float>(base.probs)),
                         as_row(std::span<const float>(offline)));
    EXPECT_TRUE(off_div.ok())
        << "shards " << shards
        << " diverged from the offline reference: " << off_div.report();
  }
}

/// The full deployment story in one virtual-time trace: a backend hot-swap
/// AND a shard-set resize (add + remove) scripted mid-traffic. Every routing
/// decision, batch boundary, version tag, resize boundary, and served bit
/// must be a pure function of (trace, config) — identical across thread
/// counts for every seed and starting shard count.
ShardedReplayRun run_swap_and_resize_replay(
    std::uint64_t seed, std::size_t threads, std::size_t shards,
    std::span<const data::ClickSample> samples,
    std::span<const serve::TraceEvent> trace) {
  testkit::ThreadScope scope(threads);
  recsys::DlrmConfig cfg;
  cfg.num_tables = 4;
  cfg.rows_per_table = 300;
  cfg.embed_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  // replicas[v][s]: one model build per backend version, replicated across
  // every shard slot the script can create (`shards` initial + one added).
  std::vector<std::vector<std::unique_ptr<recsys::Dlrm>>> replicas(2);
  for (std::size_t v = 0; v < 2; ++v) {
    for (std::size_t s = 0; s < shards + 1; ++s) {
      Rng rng(seed + v * 100);
      replicas[v].push_back(std::make_unique<recsys::Dlrm>(cfg, rng));
    }
  }

  const std::size_t n = trace.size();
  serve::ShardedReplayConfig scfg;
  scfg.replay.serve.max_batch = 8;
  scfg.replay.serve.max_wait_ns = 100000;
  scfg.replay.service_ns = 50000;
  scfg.num_shards = shards;
  scfg.resizes = {
      {trace[n / 4].arrival_ns, serve::ResizeEvent::Kind::kAdd, shards},
      {trace[(3 * n) / 4].arrival_ns, serve::ResizeEvent::Kind::kRemove, 0},
  };
  scfg.replay.swaps = {{trace[n / 2].arrival_ns, 1}};

  ShardedReplayRun run;
  run.probs.assign(samples.size(), 0.0f);
  const serve::ShardedReplayResult result = serve::replay_sharded(
      trace, scfg,
      [&](std::size_t shard, std::span<const std::size_t> ids,
          std::uint64_t version) {
        std::vector<data::ClickSample> batch;
        batch.reserve(ids.size());
        for (std::size_t id : ids) batch.push_back(samples[id]);
        const std::vector<float> probs =
            replicas[version][shard]->predict_batch(batch);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          run.probs[ids[i]] = probs[i];
        }
      });
  run.log = result.boundary_log();
  run.completed = result.stats.completed;
  return run;
}

TEST(Determinism, SwapAndResizeInOneTraceBitwiseAcrossSeedsShardsAndThreads) {
  const std::size_t n = 48;
  data::ClickLogConfig log_cfg;
  log_cfg.num_tables = 4;
  log_cfg.rows_per_table = 300;
  const data::ClickLogGenerator gen(log_cfg);
  Rng data_rng(17);
  const std::vector<data::ClickSample> samples = gen.batch(n, data_rng);

  Rng trace_rng(18);
  std::vector<serve::TraceEvent> trace =
      serve::poisson_trace(n, 30000.0, 0, trace_rng);
  for (std::size_t i = 0; i < n; ++i) {
    trace[i].key = serve::click_routing_key(samples[i]);
  }

  for (std::uint64_t seed : kSeeds) {
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      const ShardedReplayRun base =
          run_swap_and_resize_replay(seed, 1, shards, samples, trace);
      const ShardedReplayRun wide =
          run_swap_and_resize_replay(seed, 8, shards, samples, trace);
      EXPECT_EQ(base.completed, n) << "seed " << seed << " shards " << shards;
      EXPECT_EQ(base.log, wide.log)
          << "seed " << seed << " shards " << shards
          << ": swap+resize boundary log moved with ENW_THREADS";
      // The scripted events are all visible in the pinned log.
      EXPECT_NE(base.log.find("op=add"), std::string::npos);
      EXPECT_NE(base.log.find("op=remove shard=0"), std::string::npos);
      EXPECT_NE(base.log.find("swap: t="), std::string::npos);
      // The added shard's section (the last one) holds batches; batch lines
      // carry no shard tag because the section header names the shard.
      const std::size_t added =
          base.log.find("shard " + std::to_string(shards) + ":\n");
      ASSERT_NE(added, std::string::npos);
      EXPECT_NE(base.log.find("batch ", added), std::string::npos);
      EXPECT_EQ(base.log.find(" s="), std::string::npos);
      const auto div =
          first_divergence(as_row(std::span<const float>(base.probs)),
                           as_row(std::span<const float>(wide.probs)));
      EXPECT_TRUE(div.ok())
          << "seed " << seed << " shards " << shards << ": " << div.report();
    }
  }
}

TEST(Determinism, FewshotEpisodeBitwiseAcrossSeedsAndThreads) {
  data::SyntheticOmniglotConfig ocfg;
  ocfg.num_classes = 20;
  ocfg.image_size = 12;
  const data::SyntheticOmniglot ds(ocfg);
  for (std::uint64_t seed : kSeeds) {
    const double base = run_fewshot(seed, 1, ds);
    for (std::size_t threads : kThreadCounts) {
      if (threads == 1) continue;
      const double acc = run_fewshot(seed, threads, ds);
      EXPECT_EQ(base, acc) << "seed " << seed << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace enw
