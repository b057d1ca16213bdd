// Tests for the batched minibatch execution path: the LinearOps batch API,
// the DenseLayer / Mlp / QatMlp batched drivers, the batched recsys serving
// paths, and the batched MANN scorer.
//
// The central contract under test: on the digital backend, batched forward,
// backward, and the accumulated update are BITWISE identical to the
// per-sample loops they replace — for any batch size and any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "analog/analog_linear.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/click_log.h"
#include "mann/similarity_search.h"
#include "nn/activation.h"
#include "nn/digital_linear.h"
#include "nn/fp8.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/quant.h"
#include "recsys/dlrm.h"
#include "recsys/embedding_table.h"
#include "recsys/wide_and_deep.h"
#include "tensor/ops.h"
#include "testkit/diff.h"
#include "testkit/generators.h"

namespace enw {
namespace {

using nn::Activation;
using nn::DigitalLinear;
using nn::Mlp;
using nn::MlpConfig;

// Equivalence checks ride on enw::testkit: same bitwise contract as the old
// hand-rolled memcmp helpers, but a failure now names the first diverging
// element and its ULP distance instead of printing "false".
::testing::AssertionResult bitwise_equal(std::span<const float> a,
                                         std::span<const float> b) {
  const testkit::Divergence d = testkit::first_divergence(a, b);
  if (d.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << d.report();
}

::testing::AssertionResult bitwise_equal(const Matrix& a, const Matrix& b) {
  const testkit::Divergence d = testkit::first_divergence(a, b);
  if (d.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << d.report();
}

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  return testkit::random_matrix(rng, r, c);
}

// RAII thread-count restore around the per-test thread sweeps.
struct ThreadCountGuard : testkit::ThreadScope {
  ThreadCountGuard() : ThreadScope(parallel::thread_count()) {}
};

constexpr std::size_t kBatchSizes[] = {1, 3, 64};
constexpr std::size_t kThreadCounts[] = {1, 8};

// ---------------------------------------------------------------------------
// DigitalLinear: GEMM overrides vs the per-sample primitives.
// ---------------------------------------------------------------------------

TEST(DigitalLinearBatch, ForwardBatchBitwiseEqualsPerSampleLoop) {
  ThreadCountGuard guard;
  for (std::size_t threads : kThreadCounts) {
    parallel::set_thread_count(threads);
    for (std::size_t batch : kBatchSizes) {
      Rng rng(11);
      DigitalLinear ops(17, 29, rng);
      const Matrix x = random_matrix(batch, 29, rng);
      Matrix y_batch(batch, 17);
      ops.forward_batch(x, y_batch);
      for (std::size_t s = 0; s < batch; ++s) {
        Vector y(17, 0.0f);
        ops.forward(x.row(s), y);
        EXPECT_TRUE(bitwise_equal(y_batch.row(s), y))
            << "batch=" << batch << " threads=" << threads << " sample=" << s;
      }
    }
  }
}

TEST(DigitalLinearBatch, BackwardBatchBitwiseEqualsPerSampleLoop) {
  ThreadCountGuard guard;
  for (std::size_t threads : kThreadCounts) {
    parallel::set_thread_count(threads);
    for (std::size_t batch : kBatchSizes) {
      Rng rng(12);
      DigitalLinear ops(17, 29, rng);
      Matrix dy = random_matrix(batch, 17, rng);
      // ReLU-sparse deltas: the batched kernel must replicate the per-sample
      // zero-skip exactly.
      for (std::size_t i = 0; i < dy.size(); i += 2) dy.data()[i] = 0.0f;
      Matrix dx_batch(batch, 29);
      ops.backward_batch(dy, dx_batch);
      for (std::size_t s = 0; s < batch; ++s) {
        Vector dx(29, 0.0f);
        ops.backward(dy.row(s), dx);
        EXPECT_TRUE(bitwise_equal(dx_batch.row(s), dx))
            << "batch=" << batch << " threads=" << threads << " sample=" << s;
      }
    }
  }
}

TEST(DigitalLinearBatch, UpdateBatchBitwiseEqualsSequentialUpdates) {
  ThreadCountGuard guard;
  for (std::size_t threads : kThreadCounts) {
    parallel::set_thread_count(threads);
    for (std::size_t batch : kBatchSizes) {
      Rng rng(13);
      DigitalLinear batched(17, 29, rng);
      DigitalLinear sequential(batched.weights());
      const Matrix x = random_matrix(batch, 29, rng);
      Matrix dy = random_matrix(batch, 17, rng);
      for (std::size_t i = 0; i < dy.size(); i += 3) dy.data()[i] = 0.0f;
      batched.update_batch(x, dy, 0.05f);
      for (std::size_t s = 0; s < batch; ++s) {
        sequential.update(x.row(s), dy.row(s), 0.05f);
      }
      EXPECT_TRUE(bitwise_equal(batched.weights(), sequential.weights()))
          << "batch=" << batch << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Mlp: batched inference and true minibatch training.
// ---------------------------------------------------------------------------

Mlp make_digital_mlp(Rng& rng) {
  MlpConfig cfg;
  cfg.dims = {6, 5, 3};
  cfg.hidden_activation = Activation::kRelu;
  return Mlp(cfg, DigitalLinear::factory(rng));
}

TEST(MlpBatch, InferBatchBitwiseEqualsPerSampleInference) {
  ThreadCountGuard guard;
  for (std::size_t threads : kThreadCounts) {
    parallel::set_thread_count(threads);
    for (std::size_t batch : kBatchSizes) {
      Rng rng(21);
      Mlp net = make_digital_mlp(rng);
      const Matrix x = random_matrix(batch, 6, rng);
      const Matrix logits = net.infer_batch(x);
      const std::vector<std::size_t> preds = net.predict_batch(x);
      for (std::size_t s = 0; s < batch; ++s) {
        Vector h(x.row(s).begin(), x.row(s).end());
        for (std::size_t l = 0; l < net.layer_count(); ++l) h = net.layer(l).infer(h);
        EXPECT_TRUE(bitwise_equal(logits.row(s), h));
        EXPECT_EQ(preds[s], net.predict(x.row(s)));
      }
    }
  }
}

// train_batch must apply exactly the hand-accumulated minibatch update: every
// sample's gradient taken against the frozen pre-step weights, scaled by 1/B,
// folded in sample order with the zero-input skip — bitwise. The oracle runs
// over the input-major W^T that DigitalLinear stores: forward
// matvec_transposed(wt, x), backward matvec(wt, g), and each update a rank-1
// x (-lr * delta)^T into W^T. The 6-5-3 net is narrower than one simd vector;
// the 40-33-17 net is wider than 16 lanes with ragged column tails, where a
// k-ordered FMA chain and a lane-partitioned dot round differently, so it
// fails if the library pairs its kernels any other way.
TEST(MlpBatch, TrainBatchBitwiseEqualsHandAccumulatedGradients) {
  ThreadCountGuard guard;
  const float lr = 0.1f;
  const std::vector<std::vector<std::size_t>> nets = {{6, 5, 3}, {40, 33, 17}};
  for (const std::vector<std::size_t>& dims : nets) {
    for (std::size_t threads : kThreadCounts) {
      parallel::set_thread_count(threads);
      for (std::size_t batch : kBatchSizes) {
        Rng rng(22);
        MlpConfig cfg;
        cfg.dims = dims;
        cfg.hidden_activation = Activation::kRelu;
        Mlp net(cfg, DigitalLinear::factory(rng));
        const std::size_t classes = dims.back();
        const Matrix x = random_matrix(batch, dims.front(), rng);
        std::vector<std::size_t> labels(batch);
        for (std::size_t s = 0; s < batch; ++s) labels[s] = s % classes;

        // Frozen pre-step parameters, input-major.
        const Matrix wt1 = transpose(net.layer(0).ops().weights());
        const Matrix wt2 = transpose(net.layer(1).ops().weights());
        Vector b1 = net.layer(0).bias();
        Vector b2 = net.layer(1).bias();

        // Hand-computed per-sample activations and deltas against wt1/wt2.
        const float inv_b = 1.0f / static_cast<float>(batch);
        std::vector<Vector> hidden(batch), delta2(batch), delta1(batch);
        double total_loss = 0.0;
        for (std::size_t s = 0; s < batch; ++s) {
          Vector h = matvec_transposed(wt1, x.row(s));
          for (std::size_t i = 0; i < h.size(); ++i) h[i] += b1[i];
          nn::activate(Activation::kRelu, h);
          hidden[s] = h;
          Vector logits = matvec_transposed(wt2, h);
          for (std::size_t i = 0; i < logits.size(); ++i) logits[i] += b2[i];
          Vector g(logits.size(), 0.0f);
          total_loss += nn::softmax_cross_entropy(logits, labels[s], g);
          for (float& v : g) v *= inv_b;
          delta2[s] = g;  // identity output activation
          Vector g1 = matvec(wt2, g);
          nn::scale_by_activation_grad(Activation::kRelu, h, g1);
          delta1[s] = g1;
        }

        // Accumulated updates, folded in sample order.
        const auto neg_lr = [lr](const Vector& d) {
          Vector out(d.size());
          for (std::size_t i = 0; i < d.size(); ++i) out[i] = -lr * d[i];
          return out;
        };
        Matrix ewt1 = wt1, ewt2 = wt2;
        Vector eb1 = b1, eb2 = b2;
        for (std::size_t s = 0; s < batch; ++s) {
          rank1_update(ewt2, hidden[s], neg_lr(delta2[s]), 1.0f,
                       ZeroSkip::kSkipZeroInputs);
          rank1_update(ewt1, x.row(s), neg_lr(delta1[s]), 1.0f,
                       ZeroSkip::kSkipZeroInputs);
        }
        for (std::size_t s = 0; s < batch; ++s) {
          for (std::size_t i = 0; i < eb2.size(); ++i) eb2[i] -= lr * delta2[s][i];
          for (std::size_t i = 0; i < eb1.size(); ++i) eb1[i] -= lr * delta1[s][i];
        }

        const float loss = net.train_batch(x, labels, lr);
        EXPECT_FLOAT_EQ(loss,
                        static_cast<float>(total_loss / static_cast<double>(batch)));
        EXPECT_TRUE(bitwise_equal(net.layer(0).ops().weights(), transpose(ewt1)))
            << "dims[0]=" << dims[0] << " batch=" << batch << " threads=" << threads;
        EXPECT_TRUE(bitwise_equal(net.layer(1).ops().weights(), transpose(ewt2)))
            << "dims[0]=" << dims[0] << " batch=" << batch;
        EXPECT_TRUE(bitwise_equal(net.layer(0).bias(), eb1));
        EXPECT_TRUE(bitwise_equal(net.layer(1).bias(), eb2));
      }
    }
  }
}

TEST(MlpBatch, TrainBatchReducesLossOnFixedBatch) {
  Rng rng(23);
  Mlp net = make_digital_mlp(rng);
  const Matrix x = random_matrix(32, 6, rng);
  std::vector<std::size_t> labels(32);
  for (std::size_t s = 0; s < 32; ++s) labels[s] = s % 3;
  const float first = net.train_batch(x, labels, 0.2f);
  float last = first;
  for (int it = 0; it < 30; ++it) last = net.train_batch(x, labels, 0.2f);
  EXPECT_LT(last, first);
}

TEST(MlpBatch, AccuracyAndMeanLossMatchPerSampleEvaluation) {
  Rng rng(24);
  Mlp net = make_digital_mlp(rng);
  // More samples than one eval chunk (256) to cover the chunk boundary.
  const std::size_t n = 300;
  const Matrix features = random_matrix(n, 6, rng);
  std::vector<std::size_t> labels(n);
  for (std::size_t s = 0; s < n; ++s) labels[s] = s % 3;

  std::size_t correct = 0;
  double total = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    Vector h(features.row(s).begin(), features.row(s).end());
    for (std::size_t l = 0; l < net.layer_count(); ++l) h = net.layer(l).infer(h);
    if (argmax(h) == labels[s]) ++correct;
    total += nn::softmax_cross_entropy(h, labels[s]);
  }
  EXPECT_DOUBLE_EQ(net.accuracy(features, labels),
                   static_cast<double>(correct) / static_cast<double>(n));
  EXPECT_DOUBLE_EQ(net.mean_loss(features, labels),
                   total / static_cast<double>(n));
}

TEST(LossOverloads, GradFreeCrossEntropyMatchesGradVariant) {
  Rng rng(25);
  for (int trial = 0; trial < 20; ++trial) {
    Vector logits(7);
    for (auto& v : logits) v = static_cast<float>(rng.normal() * 3.0);
    const std::size_t label = static_cast<std::size_t>(trial % 7);
    Vector grad(7, 0.0f);
    EXPECT_EQ(nn::softmax_cross_entropy(logits, label),
              nn::softmax_cross_entropy(logits, label, grad));
  }
}

// ---------------------------------------------------------------------------
// Backends without overrides fall back to the per-sample loop; the analog
// override must preserve the RNG stream of the sequential loop exactly.
// ---------------------------------------------------------------------------

analog::AnalogMatrixConfig noisy_array_config() {
  analog::AnalogMatrixConfig c;
  c.read_noise_std = 0.02;
  c.dac_bits = 7;
  c.adc_bits = 9;
  return c;
}

TEST(AnalogBatch, ForwardBatchBitwiseEqualsSequentialTwinWithNoise) {
  ThreadCountGuard guard;
  for (std::size_t threads : kThreadCounts) {
    parallel::set_thread_count(threads);
    for (std::size_t batch : kBatchSizes) {
      // Twin arrays: identical config/seed, so identical device state and
      // RNG stream. One serves the batch, the other loops samples.
      Rng init_a(31), init_b(31);
      analog::AnalogLinear batched(9, 13, noisy_array_config(), init_a);
      analog::AnalogLinear sequential(9, 13, noisy_array_config(), init_b);
      Rng data_rng(32);
      const Matrix x = random_matrix(batch, 13, data_rng);
      Matrix y_batch(batch, 9);
      batched.forward_batch(x, y_batch);
      for (std::size_t s = 0; s < batch; ++s) {
        Vector y(9, 0.0f);
        sequential.forward(x.row(s), y);
        EXPECT_TRUE(bitwise_equal(y_batch.row(s), y))
            << "batch=" << batch << " threads=" << threads << " sample=" << s;
      }
    }
  }
}

TEST(AnalogBatch, ZeroShiftedForwardBatchMatchesSequentialTwin) {
  Rng init_a(33), init_b(33);
  analog::AnalogLinear batched(6, 10, noisy_array_config(), init_a,
                               /*zero_shift=*/true);
  analog::AnalogLinear sequential(6, 10, noisy_array_config(), init_b,
                                  /*zero_shift=*/true);
  Rng data_rng(34);
  const Matrix x = random_matrix(5, 10, data_rng);
  Matrix y_batch(5, 6);
  batched.forward_batch(x, y_batch);
  for (std::size_t s = 0; s < 5; ++s) {
    Vector y(6, 0.0f);
    sequential.forward(x.row(s), y);
    EXPECT_TRUE(bitwise_equal(y_batch.row(s), y));
  }
}

TEST(DefaultBatchFallback, MixedPrecisionUsesPerSampleLoop) {
  Rng init_a(35), init_b(35);
  analog::MixedPrecisionLinear batched(7, 11, noisy_array_config(), init_a);
  analog::MixedPrecisionLinear sequential(7, 11, noisy_array_config(), init_b);
  Rng data_rng(36);
  const Matrix x = random_matrix(4, 11, data_rng);
  Matrix y_batch(4, 7);
  batched.forward_batch(x, y_batch);  // default: loops forward() per sample
  for (std::size_t s = 0; s < 4; ++s) {
    Vector y(7, 0.0f);
    sequential.forward(x.row(s), y);
    EXPECT_TRUE(bitwise_equal(y_batch.row(s), y));
  }
}

TEST(DefaultBatchFallback, Fp8BackwardAndUpdateBatchLoopPerSample) {
  Rng rng_a(37), rng_b(37);
  nn::Fp8Linear batched(8, 12, rng_a);
  nn::Fp8Linear sequential(8, 12, rng_b);
  Rng data_rng(38);
  const Matrix x = random_matrix(3, 12, data_rng);
  const Matrix dy = random_matrix(3, 8, data_rng);
  Matrix dx_batch(3, 12);
  batched.backward_batch(dy, dx_batch);
  batched.update_batch(x, dy, 0.01f);
  // Mirror the batch-call order: all backwards against the pre-update
  // weights, then all updates.
  for (std::size_t s = 0; s < 3; ++s) {
    Vector dx(12, 0.0f);
    sequential.backward(dy.row(s), dx);
    EXPECT_TRUE(bitwise_equal(dx_batch.row(s), dx));
  }
  for (std::size_t s = 0; s < 3; ++s) {
    sequential.update(x.row(s), dy.row(s), 0.01f);
  }
  EXPECT_TRUE(bitwise_equal(batched.weights(), sequential.weights()));
}

// ---------------------------------------------------------------------------
// QatMlp batched evaluation.
// ---------------------------------------------------------------------------

TEST(QatBatch, InferBatchMatchesPerSamplePredict) {
  Rng rng(41);
  nn::QatConfig cfg;
  cfg.dims = {8, 6, 4};
  nn::QatMlp net(cfg, rng);
  Rng data_rng(42);
  const Matrix x = random_matrix(10, 8, data_rng);
  const Matrix logits = net.infer_batch(x);
  const std::vector<std::size_t> preds = net.predict_batch(x);
  for (std::size_t s = 0; s < x.rows(); ++s) {
    const Vector per_sample = net.forward(x.row(s));
    EXPECT_TRUE(bitwise_equal(logits.row(s), per_sample));
    EXPECT_EQ(preds[s], argmax(per_sample));
  }
  std::vector<std::size_t> labels(x.rows());
  for (std::size_t s = 0; s < labels.size(); ++s) labels[s] = s % 4;
  std::size_t correct = 0;
  for (std::size_t s = 0; s < labels.size(); ++s) {
    if (preds[s] == labels[s]) ++correct;
  }
  EXPECT_DOUBLE_EQ(net.accuracy(x, labels),
                   static_cast<double>(correct) / static_cast<double>(labels.size()));
}

// ---------------------------------------------------------------------------
// Embedding tables: batched pooled lookup.
// ---------------------------------------------------------------------------

TEST(EmbeddingBatch, LookupSumBatchMatchesPerSampleLookups) {
  Rng rng(51);
  recsys::EmbeddingTable table(40, 8, rng);
  const std::vector<std::vector<std::size_t>> index_lists = {
      {0, 5, 5, 39}, {}, {17}, {3, 2, 1, 0, 12}};
  std::vector<std::span<const std::size_t>> spans;
  spans.reserve(index_lists.size());
  for (const auto& l : index_lists) spans.emplace_back(l);
  Matrix out(index_lists.size(), 8);
  table.lookup_sum_batch(spans, out);
  for (std::size_t s = 0; s < index_lists.size(); ++s) {
    Vector expected(8, 0.0f);
    table.lookup_sum(index_lists[s], expected);
    EXPECT_TRUE(bitwise_equal(out.row(s), expected));
  }
}

TEST(EmbeddingBatch, OutOfRangeIndexThrowsBeforeAnyAccumulation) {
  Rng rng(52);
  recsys::EmbeddingTable table(10, 4, rng);
  const std::vector<std::size_t> bad = {3, 10};
  Vector out(4, 0.0f);
  EXPECT_THROW(table.lookup_sum(bad, out), std::invalid_argument);
  EXPECT_THROW(table.apply_gradient(bad, Vector(4, 0.1f), 0.01f),
               std::invalid_argument);
  // The hoisted validation must reject the batch before touching any row:
  // row 3 stays unmodified after the failed apply_gradient.
  Vector row3(table.row(3).begin(), table.row(3).end());
  EXPECT_THROW(table.apply_gradient(bad, Vector(4, 0.1f), 0.01f),
               std::invalid_argument);
  EXPECT_TRUE(bitwise_equal(table.row(3), row3));
}

// ---------------------------------------------------------------------------
// Recsys batched serving.
// ---------------------------------------------------------------------------

TEST(RecsysBatch, DlrmPredictBatchMatchesPerSamplePredict) {
  Rng rng(61);
  recsys::DlrmConfig cfg;
  cfg.num_dense = 5;
  cfg.num_tables = 3;
  cfg.rows_per_table = 50;
  cfg.embed_dim = 4;
  cfg.bottom_hidden = {8};
  cfg.top_hidden = {8};
  recsys::Dlrm model(cfg, rng);

  data::ClickLogConfig log_cfg;
  log_cfg.num_dense = 5;
  log_cfg.num_tables = 3;
  log_cfg.rows_per_table = 50;
  data::ClickLogGenerator gen(log_cfg);
  Rng data_rng(62);
  const std::vector<data::ClickSample> batch = gen.batch(20, data_rng);

  const std::vector<float> probs = model.predict_batch(batch);
  ASSERT_EQ(probs.size(), batch.size());
  for (std::size_t s = 0; s < batch.size(); ++s) {
    const float expected = model.predict(batch[s]);
    EXPECT_EQ(probs[s], expected) << "sample " << s;
  }
}

TEST(RecsysBatch, WideAndDeepPredictBatchMatchesPerSamplePredict) {
  Rng rng(63);
  recsys::WideAndDeepConfig cfg;
  cfg.num_dense = 5;
  cfg.num_tables = 3;
  cfg.rows_per_table = 50;
  cfg.embed_dim = 4;
  cfg.deep_hidden = {8};
  recsys::WideAndDeep model(cfg, rng);

  data::ClickLogConfig log_cfg;
  log_cfg.num_dense = 5;
  log_cfg.num_tables = 3;
  log_cfg.rows_per_table = 50;
  data::ClickLogGenerator gen(log_cfg);
  Rng data_rng(64);
  std::vector<data::ClickSample> batch = gen.batch(15, data_rng);
  // Give the wide part nonzero weights so its gather contributes.
  for (int i = 0; i < 5; ++i) model.train_step(batch[static_cast<std::size_t>(i)], 0.1f);

  const std::vector<float> probs = model.predict_batch(batch);
  for (std::size_t s = 0; s < batch.size(); ++s) {
    EXPECT_EQ(probs[s], model.predict(batch[s])) << "sample " << s;
  }
}

// ---------------------------------------------------------------------------
// MANN batched scoring.
// ---------------------------------------------------------------------------

TEST(MannBatch, ExactSearchPredictBatchMatchesPerQueryPredict) {
  ThreadCountGuard guard;
  const Metric metrics[] = {Metric::kCosineSimilarity, Metric::kDot, Metric::kL1,
                            Metric::kL2, Metric::kLInf};
  for (std::size_t threads : kThreadCounts) {
    parallel::set_thread_count(threads);
    for (Metric metric : metrics) {
      Rng rng(71);
      mann::ExactSearch search(12, metric);
      const Matrix keys = random_matrix(30, 12, rng);
      for (std::size_t i = 0; i < keys.rows(); ++i) search.add(keys.row(i), i % 7);
      const Matrix queries = random_matrix(9, 12, rng);
      std::vector<std::size_t> preds(queries.rows());
      search.predict_batch(queries, preds);
      for (std::size_t s = 0; s < queries.rows(); ++s) {
        EXPECT_EQ(preds[s], search.predict(queries.row(s)))
            << metric_name(metric) << " threads=" << threads << " query=" << s;
      }
    }
  }
}

TEST(MannBatch, TiesKeepFirstStoredWinsSemantics) {
  mann::ExactSearch search(4, Metric::kDot);
  const Vector key = {1.0f, 2.0f, 3.0f, 4.0f};
  // Two identical keys with different labels: the first stored must win,
  // exactly as in per-query predict().
  search.add(key, 5);
  search.add(key, 9);
  Matrix queries(2, 4);
  std::copy(key.begin(), key.end(), queries.row(0).begin());
  std::copy(key.begin(), key.end(), queries.row(1).begin());
  std::vector<std::size_t> preds(2);
  search.predict_batch(queries, preds);
  EXPECT_EQ(preds[0], 5u);
  EXPECT_EQ(preds[1], 5u);
  EXPECT_EQ(search.predict(key), 5u);
}

TEST(MannBatch, ZeroQueryCosineScoresZeroLikePerSample) {
  mann::ExactSearch search(3, Metric::kCosineSimilarity);
  search.add(Vector{1.0f, 0.0f, 0.0f}, 1);
  search.add(Vector{0.0f, 1.0f, 0.0f}, 2);
  Matrix queries(1, 3);  // zero-filled: the cosine guard must kick in
  std::vector<std::size_t> preds(1);
  search.predict_batch(queries, preds);
  EXPECT_EQ(preds[0], search.predict(queries.row(0)));
}

}  // namespace
}  // namespace enw
