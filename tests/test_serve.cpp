// Tests for enw::serve — the flush policy, the deterministic load-replay
// harness, and the live concurrent Server.
//
// The replay tests pin the tentpole determinism claim: the same seeded
// request trace produces the same batch boundaries (diffed as the canonical
// boundary log) and served outputs bitwise-identical to the offline
// predict_batch reference, across ENW_THREADS {1, 8}. The live-server tests
// cover concurrency semantics — backpressure, deadline shed, drain on
// shutdown — without asserting on wall-clock timing, and run under the TSan
// CI job with an 8-thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "data/click_log.h"
#include "mann/similarity_search.h"
#include "nn/digital_linear.h"
#include "nn/mlp.h"
#include "nn/quant.h"
#include "recsys/dlrm.h"
#include "serve/backends.h"
#include "serve/replay.h"
#include "serve/serve.h"
#include "serve/server.h"
#include "serve/shard_replay.h"
#include "tensor/matrix.h"
#include "testkit/diff.h"

namespace enw::serve {
namespace {

using testkit::as_row;
using testkit::first_divergence;

// --- flush policy -----------------------------------------------------------

TEST(FlushPolicy, EmptyQueueIsNeverDue) {
  ServeConfig cfg;
  const FlushDecision d = flush_due(123, 0, 0, /*draining=*/true, cfg);
  EXPECT_FALSE(d.due);
  EXPECT_EQ(d.wake_ns, 0u);
}

TEST(FlushPolicy, SizeTriggerFiresRegardlessOfAge) {
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_ns = 1000000;
  const FlushDecision d = flush_due(/*now=*/5, /*oldest=*/5, 4, false, cfg);
  ASSERT_TRUE(d.due);
  EXPECT_EQ(d.reason, FlushReason::kSize);
}

TEST(FlushPolicy, WindowFiresExactlyAtOldestPlusWait) {
  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_ns = 100;
  const FlushDecision before = flush_due(/*now=*/149, /*oldest=*/50, 3, false, cfg);
  EXPECT_FALSE(before.due);
  EXPECT_EQ(before.wake_ns, 150u);
  const FlushDecision at = flush_due(/*now=*/150, /*oldest=*/50, 3, false, cfg);
  ASSERT_TRUE(at.due);
  EXPECT_EQ(at.reason, FlushReason::kWindow);
}

TEST(FlushPolicy, DrainFlushesPartialBatchImmediately) {
  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_ns = 1000000;
  const FlushDecision d = flush_due(/*now=*/10, /*oldest=*/10, 1, true, cfg);
  ASSERT_TRUE(d.due);
  EXPECT_EQ(d.reason, FlushReason::kDrain);
}

// --- shared fixtures --------------------------------------------------------

nn::Mlp make_mlp(std::uint64_t seed, std::size_t in_dim = 32) {
  nn::MlpConfig cfg;
  cfg.dims = {in_dim, 24, 10};
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

// --- deterministic replay ---------------------------------------------------

struct MlpReplayRun {
  Matrix served;
  std::string log;
  ReplayResult result;
};

MlpReplayRun replay_mlp(const nn::Mlp& net, const Matrix& inputs,
                        std::span<const TraceEvent> trace,
                        const ReplayConfig& cfg, std::size_t threads) {
  testkit::ThreadScope scope(threads);
  MlpReplayRun run{Matrix(inputs.rows(), net.output_dim()), "", {}};
  const auto backend = mlp_logits_backend(net);
  run.result = replay_trace(
      trace, cfg, [&](std::span<const std::size_t> ids, std::uint64_t) {
        std::vector<Vector> batch;
        batch.reserve(ids.size());
        for (std::size_t id : ids) {
          batch.emplace_back(inputs.row(id).begin(), inputs.row(id).end());
        }
        const std::vector<Vector> outs = backend(batch);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          std::copy(outs[i].begin(), outs[i].end(),
                    run.served.row(ids[i]).begin());
        }
      });
  run.log = run.result.boundary_log();
  return run;
}

TEST(Replay, MlpServedBitwiseMatchesOfflineAcrossThreads) {
  const std::size_t n = 48;
  const nn::Mlp net = make_mlp(1);
  const Matrix inputs = random_inputs(n, 32, 2);
  Rng trng(9);
  const std::vector<TraceEvent> trace =
      poisson_trace(n, /*mean_gap_ns=*/50000.0, /*deadline=*/0, trng);

  ReplayConfig cfg;
  cfg.serve.max_batch = 8;
  cfg.serve.max_wait_ns = 200000;
  cfg.service_ns = 120000;

  const MlpReplayRun one = replay_mlp(net, inputs, trace, cfg, 1);
  const MlpReplayRun eight = replay_mlp(net, inputs, trace, cfg, 8);

  // Same trace => identical batch boundaries, independent of the pool size.
  EXPECT_FALSE(one.log.empty());
  EXPECT_EQ(one.log, eight.log);
  EXPECT_GT(one.result.batches.size(), 1u) << "trace should split into "
                                              "several micro-batches";

  // Served outputs == offline predict_batch reference, bitwise, both pools.
  const Matrix offline = net.infer_batch(inputs);
  const auto div1 = first_divergence(one.served, offline);
  EXPECT_TRUE(div1.ok()) << "threads=1: " << div1.report();
  const auto div8 = first_divergence(eight.served, offline);
  EXPECT_TRUE(div8.ok()) << "threads=8: " << div8.report();

  for (std::size_t id = 0; id < n; ++id) {
    EXPECT_EQ(one.result.outcomes[id].status, Status::kOk) << "id " << id;
  }
  EXPECT_EQ(one.result.stats.completed, n);
  EXPECT_EQ(one.result.stats.executed_requests, n);
}

TEST(Replay, QatInt8ServedBitwiseMatchesOfflineBatch) {
  // The int8 engine goes through the same MLP adapter. Its activations are
  // quantized per row, i.e. per request, so the served logits match the
  // offline whole-trace batch bitwise whatever the micro-batch boundaries.
  const std::size_t n = 24;
  Rng rng(31);
  nn::QatConfig qcfg;
  qcfg.dims = {32, 16, 10};
  const nn::QatMlp qat(qcfg, rng);
  const nn::QatInt8Inference engine(qat);
  const Matrix inputs = random_inputs(n, 32, 32);
  Rng trng(33);
  const std::vector<TraceEvent> trace = poisson_trace(n, 30000.0, 0, trng);
  ReplayConfig cfg;
  cfg.serve.max_batch = 5;
  cfg.serve.max_wait_ns = 100000;
  cfg.service_ns = 60000;

  Matrix served(n, engine.output_dim());
  const auto backend = mlp_logits_backend(engine);
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
  EXPECT_GT(r.batches.size(), 1u);
  EXPECT_EQ(r.stats.completed, n);
  const auto div = first_divergence(served, engine.infer_batch(inputs));
  EXPECT_TRUE(div.ok()) << div.report();
}

TEST(Replay, DlrmServedBitwiseMatchesOfflineBatch) {
  recsys::DlrmConfig mcfg;
  mcfg.num_tables = 4;
  mcfg.rows_per_table = 300;
  mcfg.embed_dim = 8;
  mcfg.bottom_hidden = {16};
  mcfg.top_hidden = {16};
  Rng mrng(5);
  const recsys::Dlrm model(mcfg, mrng);

  data::ClickLogConfig lcfg;
  lcfg.num_dense = mcfg.num_dense;
  lcfg.num_tables = mcfg.num_tables;
  lcfg.rows_per_table = mcfg.rows_per_table;
  const data::ClickLogGenerator gen(lcfg);
  Rng drng(6);
  const std::vector<data::ClickSample> samples = gen.batch(32, drng);

  Rng trng(11);
  const std::vector<TraceEvent> trace = poisson_trace(32, 30000.0, 0, trng);
  ReplayConfig cfg;
  cfg.serve.max_batch = 6;
  cfg.serve.max_wait_ns = 100000;
  cfg.service_ns = 90000;

  const auto run = [&](std::size_t threads) {
    testkit::ThreadScope scope(threads);
    std::vector<float> served(samples.size(), 0.0f);
    const auto backend = dlrm_backend(model);
    replay_trace(
        trace, cfg, [&](std::span<const std::size_t> ids, std::uint64_t) {
          std::vector<data::ClickSample> batch;
          batch.reserve(ids.size());
          for (std::size_t id : ids) batch.push_back(samples[id]);
          const std::vector<float> probs = backend(batch);
          for (std::size_t i = 0; i < ids.size(); ++i) {
            served[ids[i]] = probs[i];
          }
        });
    return served;
  };

  const std::vector<float> offline = model.predict_batch(samples);
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const std::vector<float> served = run(threads);
    const auto div = first_divergence(as_row(served), as_row(offline));
    EXPECT_TRUE(div.ok()) << "threads=" << threads << ": " << div.report();
  }
}

TEST(Replay, CachedDlrmServedBitwiseMatchesOfflineAcrossThreads) {
  // The embedding-cache hierarchy mutates residency per micro-batch, but its
  // determinism contract says values never depend on cache state — so the
  // served outputs must still diff bitwise against the offline cached
  // predict_batch reference, whatever the collator's batch boundaries or the
  // pool size, and across a replay that reuses the warm cache.
  recsys::DlrmConfig mcfg;
  mcfg.num_tables = 4;
  mcfg.rows_per_table = 300;
  mcfg.embed_dim = 8;
  mcfg.bottom_hidden = {16};
  mcfg.top_hidden = {16};
  Rng mrng(21);
  recsys::Dlrm model(mcfg, mrng);

  model.enable_embedding_cache(/*hot_rows=*/32, /*bits=*/8);

  data::ClickLogConfig lcfg;
  lcfg.num_dense = mcfg.num_dense;
  lcfg.num_tables = mcfg.num_tables;
  lcfg.rows_per_table = mcfg.rows_per_table;
  const data::ClickLogGenerator gen(lcfg);
  Rng drng(22);
  const std::vector<data::ClickSample> samples = gen.batch(32, drng);

  Rng trng(23);
  const std::vector<TraceEvent> trace = poisson_trace(32, 30000.0, 0, trng);
  ReplayConfig cfg;
  cfg.serve.max_batch = 6;
  cfg.serve.max_wait_ns = 100000;
  cfg.service_ns = 90000;

  const std::vector<float> offline = model.predict_batch(samples);
  const auto backend = dlrm_backend(model);
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    testkit::ThreadScope scope(threads);
    std::vector<float> served(samples.size(), 0.0f);
    replay_trace(
        trace, cfg, [&](std::span<const std::size_t> ids, std::uint64_t) {
          std::vector<data::ClickSample> batch;
          batch.reserve(ids.size());
          for (std::size_t id : ids) batch.push_back(samples[id]);
          const std::vector<float> probs = backend(batch);
          for (std::size_t i = 0; i < ids.size(); ++i) {
            served[ids[i]] = probs[i];
          }
        });
    const auto div = first_divergence(as_row(served), as_row(offline));
    EXPECT_TRUE(div.ok()) << "threads=" << threads << ": " << div.report();
  }
  EXPECT_GT(model.embedding_cache(0).hot_hits(), 0u);
}

TEST(Replay, WideAndDeepServedBitwiseMatchesOfflineBatch) {
  recsys::WideAndDeepConfig mcfg;
  mcfg.num_tables = 4;
  mcfg.rows_per_table = 300;
  mcfg.deep_hidden = {16};
  Rng mrng(7);
  const recsys::WideAndDeep model(mcfg, mrng);

  data::ClickLogConfig lcfg;
  lcfg.num_dense = mcfg.num_dense;
  lcfg.num_tables = mcfg.num_tables;
  lcfg.rows_per_table = mcfg.rows_per_table;
  const data::ClickLogGenerator gen(lcfg);
  Rng drng(8);
  const std::vector<data::ClickSample> samples = gen.batch(24, drng);

  Rng trng(13);
  const std::vector<TraceEvent> trace = poisson_trace(24, 30000.0, 0, trng);
  ReplayConfig cfg;
  cfg.serve.max_batch = 5;
  cfg.serve.max_wait_ns = 100000;

  std::vector<float> served(samples.size(), 0.0f);
  const auto backend = wide_and_deep_backend(model);
  replay_trace(
      trace, cfg, [&](std::span<const std::size_t> ids, std::uint64_t) {
        std::vector<data::ClickSample> batch;
        batch.reserve(ids.size());
        for (std::size_t id : ids) batch.push_back(samples[id]);
        const std::vector<float> probs = backend(batch);
        for (std::size_t i = 0; i < ids.size(); ++i) served[ids[i]] = probs[i];
      });

  const std::vector<float> offline = model.predict_batch(samples);
  const auto div = first_divergence(as_row(served), as_row(offline));
  EXPECT_TRUE(div.ok()) << div.report();
}

TEST(Replay, SearchServedLabelsMatchOffline) {
  const std::size_t dim = 16;
  const std::size_t memory = 64;
  const std::size_t n = 24;
  mann::ExactSearch index(dim, Metric::kCosineSimilarity);
  const Matrix keys = random_inputs(memory, dim, 7);
  for (std::size_t i = 0; i < memory; ++i) index.add(keys.row(i), i % 5);
  const Matrix queries = random_inputs(n, dim, 8);

  std::vector<std::size_t> offline(n);
  index.predict_batch(queries, offline);

  Rng trng(13);
  const std::vector<TraceEvent> trace = poisson_trace(n, 20000.0, 0, trng);
  ReplayConfig cfg;
  cfg.serve.max_batch = 5;
  cfg.serve.max_wait_ns = 60000;

  std::vector<std::size_t> served(n, memory + 1);
  const auto backend = search_backend(index);
  replay_trace(
      trace, cfg, [&](std::span<const std::size_t> ids, std::uint64_t) {
        std::vector<Vector> batch;
        for (std::size_t id : ids) {
          batch.emplace_back(queries.row(id).begin(), queries.row(id).end());
        }
        const std::vector<std::size_t> labels = backend(batch);
        for (std::size_t i = 0; i < ids.size(); ++i) served[ids[i]] = labels[i];
      });
  EXPECT_EQ(served, offline);
}

TEST(Replay, BackpressureRejectsDeterministically) {
  // Ten simultaneous arrivals against a 4-deep queue: under kReject, ids 4-9
  // fail fast with the typed status; ids 0-3 execute as one size-triggered
  // batch. The tie rule (arrivals admit before the flush at the same
  // instant) makes this exact.
  std::vector<TraceEvent> trace(10);  // all arrive at t=0, no deadlines
  ReplayConfig cfg;
  cfg.serve.max_batch = 4;
  cfg.serve.queue_capacity = 4;
  cfg.serve.max_wait_ns = 1000000;
  cfg.serve.admission = AdmissionPolicy::kReject;
  cfg.service_ns = 1000000;

  const ReplayResult r =
      replay_trace(trace, cfg,
                   [](std::span<const std::size_t>, std::uint64_t) {});
  for (std::size_t id = 0; id < 4; ++id) {
    EXPECT_EQ(r.outcomes[id].status, Status::kOk) << "id " << id;
  }
  for (std::size_t id = 4; id < 10; ++id) {
    EXPECT_EQ(r.outcomes[id].status, Status::kRejected) << "id " << id;
  }
  EXPECT_EQ(r.stats.rejected, 6u);
  ASSERT_EQ(r.batches.size(), 1u);
  EXPECT_EQ(r.batches[0].reason, FlushReason::kSize);
  EXPECT_EQ(r.batches[0].executed, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Replay, BackpressureBlockingAdmitsEveryoneInFifoWaves) {
  // Same burst under kBlock: nobody is rejected; blocked arrivals enter the
  // queue as flushes free space, producing three deterministic batches.
  std::vector<TraceEvent> trace(10);
  ReplayConfig cfg;
  cfg.serve.max_batch = 4;
  cfg.serve.queue_capacity = 4;
  cfg.serve.max_wait_ns = 1000000;
  cfg.serve.admission = AdmissionPolicy::kBlock;
  cfg.service_ns = 1000000;

  const ReplayResult r =
      replay_trace(trace, cfg,
                   [](std::span<const std::size_t>, std::uint64_t) {});
  EXPECT_EQ(r.stats.rejected, 0u);
  EXPECT_EQ(r.stats.completed, 10u);
  ASSERT_EQ(r.batches.size(), 3u);
  EXPECT_EQ(r.batches[0].executed, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(r.batches[1].executed, (std::vector<std::size_t>{4, 5, 6, 7}));
  EXPECT_EQ(r.batches[2].executed, (std::vector<std::size_t>{8, 9}));
  // Head-of-line blocking: wave 2 waits for wave 1's executor occupancy.
  EXPECT_EQ(r.batches[1].flush_ns, 1000000u);
}

TEST(Replay, ExpiredDeadlineIsShedNeverExecuted) {
  // Request 0's 50us deadline passes before the 100us window flush; it must
  // be shed with the typed status and never handed to the executor.
  std::vector<TraceEvent> trace = {{0, 50000}, {10000, 0}};
  ReplayConfig cfg;
  cfg.serve.max_batch = 4;
  cfg.serve.max_wait_ns = 100000;

  std::vector<std::size_t> executed;
  const ReplayResult r =
      replay_trace(
          trace, cfg, [&](std::span<const std::size_t> ids, std::uint64_t) {
            executed.insert(executed.end(), ids.begin(), ids.end());
          });
  EXPECT_EQ(r.outcomes[0].status, Status::kTimedOut);
  EXPECT_EQ(r.outcomes[0].latency_ns, 100000u);
  EXPECT_EQ(r.outcomes[1].status, Status::kOk);
  EXPECT_EQ(executed, (std::vector<std::size_t>{1}));
  EXPECT_EQ(r.stats.shed, 1u);
  ASSERT_EQ(r.batches.size(), 1u);
  EXPECT_EQ(r.batches[0].shed, (std::vector<std::size_t>{0}));
}

// --- live server ------------------------------------------------------------

TEST(Server, ConcurrentClientsGetBitwiseOfflineResults) {
  const std::size_t kClients = 8;
  const std::size_t kPerClient = 8;
  const std::size_t n = kClients * kPerClient;
  const nn::Mlp net = make_mlp(3);
  const Matrix inputs = random_inputs(n, 32, 4);
  const Matrix offline = net.infer_batch(inputs);

  ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_ns = 200000;  // 200us window
  cfg.queue_capacity = n;
  Server<Vector, Vector> srv(cfg, mlp_logits_backend(net));

  std::vector<Server<Vector, Vector>::Reply> replies(n);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t id = c * kPerClient + i;
        const Vector x(inputs.row(id).begin(), inputs.row(id).end());
        replies[id] = srv.submit(x);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  srv.shutdown();

  for (std::size_t id = 0; id < n; ++id) {
    ASSERT_EQ(replies[id].status, Status::kOk) << "id " << id;
    ASSERT_EQ(replies[id].value.size(), offline.cols());
    EXPECT_EQ(std::memcmp(replies[id].value.data(), offline.row(id).data(),
                          offline.cols() * sizeof(float)),
              0)
        << "served result differs from offline reference for id " << id;
  }
  const ServerStats stats = srv.stats();
  EXPECT_EQ(stats.completed, n);
  EXPECT_EQ(stats.executed_requests, n);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GE(stats.batches, 1u);
}

/// Backend whose first invocation blocks until the test releases it — lets
/// the tests park the collator mid-execute and sequence admissions exactly.
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

void poll_until(const std::function<bool()>& pred) {
  while (!pred()) std::this_thread::yield();
}

TEST(Server, BackpressureRejectsWhenQueueFull) {
  ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.max_wait_ns = 0;
  cfg.queue_capacity = 1;
  cfg.admission = AdmissionPolicy::kReject;
  GatedEcho gate;
  Server<int, int> srv(cfg, gate.fn());

  std::thread t1([&] {
    const auto r = srv.submit(1);
    EXPECT_EQ(r.status, Status::kOk);
  });
  gate.wait_entered();  // request 1 is mid-execute, queue is empty
  std::thread t2([&] {
    const auto r = srv.submit(2);
    EXPECT_EQ(r.status, Status::kOk);
  });
  poll_until([&] { return srv.queue_depth() == 1; });  // request 2 admitted

  const auto r3 = srv.submit(3);  // queue full -> typed fast-fail
  EXPECT_EQ(r3.status, Status::kRejected);

  gate.release();
  t1.join();
  t2.join();
  srv.shutdown();
  EXPECT_EQ(srv.stats().rejected, 1u);
  EXPECT_EQ(srv.stats().completed, 2u);
}

TEST(Server, ShutdownDrainsAdmittedRequestsWithoutDeadlock) {
  ServeConfig cfg;
  cfg.max_batch = 64;           // size trigger never fires
  cfg.max_wait_ns = 10ull * 1000 * 1000 * 1000;  // window never fires in-test
  Server<int, int> srv(cfg, [](std::span<const int> batch) {
    return std::vector<int>(batch.begin(), batch.end());
  });

  std::vector<Server<int, int>::Reply> replies(4);
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] { replies[i] = srv.submit(i); });
  }
  poll_until([&] { return srv.queue_depth() == 4; });
  srv.shutdown();  // drain flushes the partial batch and joins
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(replies[i].status, Status::kOk) << "id " << i;
    EXPECT_EQ(replies[i].value, i);
  }
  EXPECT_EQ(srv.stats().completed, 4u);
  EXPECT_EQ(srv.stats().batches, 1u);

  // After shutdown, submissions get the typed status, not a hang.
  EXPECT_EQ(srv.submit(99).status, Status::kShutdown);
}

TEST(Server, BlockedSubmitterWakesOnShutdownWithTypedStatus) {
  ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.max_wait_ns = 0;
  cfg.queue_capacity = 1;
  cfg.admission = AdmissionPolicy::kBlock;
  GatedEcho gate;
  Server<int, int> srv(cfg, gate.fn());

  std::thread t1([&] { EXPECT_EQ(srv.submit(1).status, Status::kOk); });
  gate.wait_entered();
  std::thread t2([&] { EXPECT_EQ(srv.submit(2).status, Status::kOk); });
  poll_until([&] { return srv.queue_depth() == 1; });
  // Third submitter blocks on the full queue. submitted is incremented in
  // the same critical section as the space wait, so once stats show 3 the
  // thread is parked on the space condition.
  Server<int, int>::Reply r3;
  std::thread t3([&] { r3 = srv.submit(3); });
  poll_until([&] { return srv.stats().submitted == 3; });

  std::thread down([&] { srv.shutdown(); });  // parks until gate releases
  t3.join();  // woken by shutdown before admission
  EXPECT_EQ(r3.status, Status::kShutdown);

  gate.release();  // collator finishes request 1, then drains request 2
  down.join();
  t1.join();
  t2.join();
  EXPECT_EQ(srv.stats().completed, 2u);
}

// --- scripted hot-swap (replay) ---------------------------------------------

TEST(Replay, ScriptedSwapPartitionsBatchesByVersionByteReproducibly) {
  // Five size-4 waves, 1ms apart; swaps scripted between waves 2/3 and 4/5.
  std::vector<TraceEvent> trace;
  for (std::uint64_t wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 4; ++i) trace.push_back({wave * 1000000, 0});
  }
  ReplayConfig cfg;
  cfg.serve.max_batch = 4;
  cfg.serve.queue_capacity = 8;
  cfg.serve.max_wait_ns = 100000;
  cfg.swaps = {{1500000, 1}, {3500000, 2}};

  const auto run = [&] {
    std::vector<std::uint64_t> exec_versions;
    const ReplayResult r = replay_trace(
        trace, cfg,
        [&](std::span<const std::size_t>, std::uint64_t version) {
          exec_versions.push_back(version);
        });
    return std::make_pair(r, exec_versions);
  };
  const auto [r, exec_versions] = run();

  ASSERT_EQ(r.batches.size(), 5u);
  const std::vector<std::uint64_t> want_versions = {0, 0, 1, 1, 2};
  for (std::size_t b = 0; b < 5; ++b) {
    EXPECT_EQ(r.batches[b].version, want_versions[b]) << "batch " << b;
  }
  EXPECT_EQ(exec_versions, want_versions);
  ASSERT_EQ(r.swaps.size(), 2u);
  EXPECT_EQ(r.swaps[0].version, 1u);
  EXPECT_EQ(r.swaps[0].first_batch, 2u);
  EXPECT_EQ(r.swaps[1].version, 2u);
  EXPECT_EQ(r.swaps[1].first_batch, 4u);
  // Every request completes on exactly one version: no drops, no errors.
  EXPECT_EQ(r.stats.completed, trace.size());
  EXPECT_EQ(r.stats.errors, 0u);

  // The boundary log carries the swap lines and version suffixes, and the
  // whole replay (log included) is byte-reproducible.
  const std::string log = r.boundary_log();
  EXPECT_NE(log.find("swap: t=1500000ns v=1 first_batch=2"), std::string::npos)
      << log;
  EXPECT_NE(log.find("swap: t=3500000ns v=2 first_batch=4"), std::string::npos);
  EXPECT_NE(log.find(" v=0\n"), std::string::npos);
  EXPECT_EQ(log, run().first.boundary_log());
}

TEST(Replay, NoSwapsKeepsBoundaryLogByteIdenticalToPreSwapFormat) {
  // One log format: with no swap scripted there is no swap line, and the
  // batch line still names the version it ran on.
  std::vector<TraceEvent> trace(4);
  ReplayConfig cfg;
  cfg.serve.max_batch = 4;
  const ReplayResult r = replay_trace(
      trace, cfg, [](std::span<const std::size_t>, std::uint64_t) {});
  const std::string log = r.boundary_log();
  EXPECT_EQ(log.find("swap"), std::string::npos);
  EXPECT_EQ(log, "batch 0: t=0ns reason=size n=4 ids=[0,1,2,3] shed=[] v=0\n");
}

TEST(Replay, NoResizesKeepShardedBoundaryLogByteIdenticalToPreResizeFormat) {
  // With no resize scripted, a one-shard replay_sharded renders exactly the
  // plain replay_trace log of the resolved tenant table under one "shard 0:"
  // header: no resize lines, no per-batch shard tags.
  std::vector<TraceEvent> trace(4);
  ShardedReplayConfig scfg;
  scfg.replay.serve.max_batch = 4;
  scfg.num_shards = 1;
  const ShardedReplayResult r = replay_sharded(
      trace, scfg,
      [](std::size_t, std::span<const std::size_t>, std::uint64_t) {});
  const std::string log = r.boundary_log();
  EXPECT_EQ(log,
            "shard 0:\nbatch 0: t=0ns reason=size n=4 ids=[0,1,2,3] shed=[] "
            "v=0\n");
  ReplayConfig resolved = scfg.replay;
  resolved.tenants =
      resolve_tenants(resolved.tenants, resolved.serve.admission);
  const ReplayResult plain = replay_trace(
      trace, resolved, [](std::span<const std::size_t>, std::uint64_t) {});
  EXPECT_EQ(log, "shard 0:\n" + plain.boundary_log());
  EXPECT_EQ(log.find("resize"), std::string::npos);
  EXPECT_EQ(log.find(" s="), std::string::npos);
  EXPECT_TRUE(r.resizes.empty());
  EXPECT_EQ(r.live, (std::vector<std::uint8_t>{1}));
}

TEST(Replay, SwapAfterLastFlushNeverActivates) {
  std::vector<TraceEvent> trace(4);
  ReplayConfig cfg;
  cfg.serve.max_batch = 4;
  cfg.swaps = {{1000000000, 7}};  // long after the only flush at t=0
  const ReplayResult r = replay_trace(
      trace, cfg, [](std::span<const std::size_t>, std::uint64_t version) {
        EXPECT_EQ(version, 0u);
      });
  EXPECT_TRUE(r.swaps.empty());
  ASSERT_EQ(r.batches.size(), 1u);
  EXPECT_EQ(r.batches[0].version, 0u);
}

TEST(Replay, MidTrafficSwapServesEachBatchBitwiseOnItsOwnModelVersion) {
  // The full deployment story in virtual time: two model builds, a swap
  // scripted mid-traffic, and every request's served output byte-equal to
  // the offline reference of the ONE version its batch ran on.
  const nn::Mlp v0 = make_mlp(91);
  const nn::Mlp v1 = make_mlp(92);
  const std::size_t n = 24;
  const Matrix inputs = random_inputs(n, 32, 93);
  const Matrix offline0 = v0.infer_batch(inputs);
  const Matrix offline1 = v1.infer_batch(inputs);

  std::vector<TraceEvent> trace;
  for (std::size_t i = 0; i < n; ++i) {
    trace.push_back({static_cast<std::uint64_t>(i) * 250000, 0});
  }
  ReplayConfig cfg;
  cfg.serve.max_batch = 4;
  cfg.serve.queue_capacity = 32;
  cfg.serve.max_wait_ns = 1000000;
  cfg.swaps = {{3000000, 1}};

  std::vector<std::function<std::vector<Vector>(std::span<const Vector>)>> fns;
  fns.push_back(mlp_logits_backend(v0));
  fns.push_back(mlp_logits_backend(v1));
  Matrix served(n, v0.output_dim());
  const ReplayResult r = replay_trace(
      trace, cfg,
      [&](std::span<const std::size_t> ids, std::uint64_t version) {
        std::vector<Vector> batch;
        for (std::size_t id : ids) {
          batch.emplace_back(inputs.row(id).begin(), inputs.row(id).end());
        }
        const std::vector<Vector> outs = fns[version](batch);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          std::copy(outs[i].begin(), outs[i].end(), served.row(ids[i]).begin());
        }
      });

  EXPECT_EQ(r.stats.completed, n);
  ASSERT_EQ(r.swaps.size(), 1u);
  for (const BatchRecord& b : r.batches) {
    const Matrix& offline = b.version == 0 ? offline0 : offline1;
    for (std::size_t id : b.executed) {
      EXPECT_EQ(std::memcmp(served.row(id).data(), offline.row(id).data(),
                            served.cols() * sizeof(float)),
                0)
          << "id " << id << " version " << b.version;
    }
  }
  // Byte-reproducible boundary log, swap line included.
  const ReplayResult again = replay_trace(
      trace, cfg, [](std::span<const std::size_t>, std::uint64_t) {});
  EXPECT_EQ(r.boundary_log(), again.boundary_log());
}

// --- poisson trace edge cases -----------------------------------------------

TEST(PoissonTrace, BoundaryDrawsProduceFiniteArrivals) {
  // u -> 1 is the draw that used to produce log(0) = -inf and an undefined
  // uint64 cast. The guarded gap must be finite, capped, and monotone.
  EXPECT_EQ(poisson_gap_ns(1e6, 0.0), 0u);
  const std::uint64_t at_one = poisson_gap_ns(1e6, 1.0);
  // 1 - u clamps to DBL_MIN: -log(DBL_MIN) ~ 708.4, so the gap is a large
  // but FINITE ~708 * mean — and always below the 2^63 cast cap.
  EXPECT_EQ(at_one,
            static_cast<std::uint64_t>(
                -1e6 * std::log(std::numeric_limits<double>::min())));
  EXPECT_LT(at_one, 1ull << 63);
  EXPECT_LE(poisson_gap_ns(1e6, std::nextafter(1.0, 0.0)), at_one);
  // Normal draws keep the exact historical arithmetic (seeded traces are
  // pinned downstream): gap(u) == uint64(-mean * log1m(u)) bitwise.
  for (double u : {0.1, 0.5, 0.9, 0.999}) {
    EXPECT_EQ(poisson_gap_ns(2.5e5, u),
              static_cast<std::uint64_t>(-2.5e5 * std::log(1.0 - u)));
  }
  EXPECT_EQ(poisson_gap_ns(0.0, 0.5), 0u);
}

TEST(PoissonTrace, SeededTraceIsDeterministicAndNonDecreasing) {
  Rng rng_a(77);
  Rng rng_b(77);
  const auto a = poisson_trace(500, 1e5, 50000, rng_a);
  const auto b = poisson_trace(500, 1e5, 50000, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_ns, b[i].arrival_ns);
    EXPECT_EQ(a[i].deadline_ns, a[i].arrival_ns + 50000);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_ns, a[i - 1].arrival_ns);
    }
  }
}

// --- percentile overloads ---------------------------------------------------

TEST(Percentile, SortedSpanOverloadByteIdenticalToSortingOverload) {
  Rng rng(55);
  std::vector<std::uint64_t> sample;
  for (int i = 0; i < 997; ++i) {
    sample.push_back(static_cast<std::uint64_t>(rng.uniform() * 1e9));
  }
  std::vector<std::uint64_t> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(percentile_sorted_ns(sorted, p), percentile_ns(sample, p)) << p;
  }
  EXPECT_EQ(percentile_sorted_ns(std::span<const std::uint64_t>{}, 50.0), 0u);
}

// --- live hot-swap ----------------------------------------------------------

TEST(Server, HotSwapMidTrafficCompletesInFlightBatchOnOldVersion) {
  ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.max_wait_ns = 0;
  cfg.queue_capacity = 8;
  GatedEcho gate;
  // Version 0 tags results +1000 (and parks its first batch on the gate);
  // version 1 tags +2000 — so the reply value names the version that served.
  const auto inner = gate.fn();
  Server<int, int> srv(cfg, [inner](std::span<const int> batch) {
    std::vector<int> out = inner(batch);
    for (int& v : out) v += 1000;
    return out;
  });

  Server<int, int>::Reply r1;
  std::thread t1([&] { r1 = srv.submit(1); });
  gate.wait_entered();  // request 1's batch is mid-execute on version 0

  srv.swap_backend(
      [](std::span<const int> batch) {
        std::vector<int> out(batch.begin(), batch.end());
        for (int& v : out) v += 2000;
        return out;
      },
      /*version=*/1);
  EXPECT_EQ(srv.backend_version(), 1u);

  gate.release();
  t1.join();
  // The in-flight batch completed on the OLD backend — swapped mid-execution,
  // served entirely by the version that collated it.
  EXPECT_EQ(r1.status, Status::kOk);
  EXPECT_EQ(r1.value, 1001);
  // The next batch runs on the new version.
  const auto r2 = srv.submit(2);
  EXPECT_EQ(r2.status, Status::kOk);
  EXPECT_EQ(r2.value, 2002);
  srv.shutdown();

  const std::vector<SwapRecord> hist = srv.swap_history();
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0].version, 1u);
  // The in-flight batch had not been recorded when the boundary was cut.
  EXPECT_EQ(hist[0].batches_before, 0u);
  EXPECT_EQ(hist[0].requests_before, 0u);
  const ServerStats stats = srv.stats();
  EXPECT_EQ(stats.completed, 2u);  // nothing dropped across the swap
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Server, SwapRejectsNonCallableBackendAndKeepsServing) {
  ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.max_wait_ns = 0;
  Server<int, int> srv(cfg, [](std::span<const int> batch) {
    return std::vector<int>(batch.begin(), batch.end());
  });
  EXPECT_THROW(srv.swap_backend(Server<int, int>::BatchFn{}, 5),
               std::invalid_argument);
  EXPECT_EQ(srv.backend_version(), 0u);
  EXPECT_TRUE(srv.swap_history().empty());
  EXPECT_EQ(srv.submit(3).value, 3);  // old backend untouched
  srv.shutdown();
}

TEST(Server, ExpiredDeadlineIsShedWithTypedError) {
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_ns = 0;
  Server<int, int> srv(cfg, [](std::span<const int> batch) {
    return std::vector<int>(batch.begin(), batch.end());
  });

  // Deadline in the distant past: shed at collation, never executed.
  EXPECT_EQ(srv.submit(7, /*deadline_ns=*/1).status, Status::kTimedOut);
  // Generous deadline: served normally.
  EXPECT_EQ(srv.submit(8, monotonic_now_ns() + 10ull * 1000 * 1000 * 1000).status,
            Status::kOk);
  srv.shutdown();
  EXPECT_EQ(srv.stats().shed, 1u);
  EXPECT_EQ(srv.stats().completed, 1u);
}

}  // namespace
}  // namespace enw::serve
