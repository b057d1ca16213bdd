// Tests for enw::testkit: ULP diffing, the differential-check harness, the
// seeded generators, the deterministic fault-injection hooks, and golden
// traces — plus the LinearOps batch-fallback coverage for a custom backend
// (one that overrides nothing, so the defaults must carry it).
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "analog/analog_linear.h"
#include "analog/analog_matrix.h"
#include "analog/pcm.h"
#include "core/fault.h"
#include "core/rng.h"
#include "nn/activation.h"
#include "nn/digital_linear.h"
#include "nn/mlp.h"
#include "tensor/ops.h"
#include "testkit/diff.h"
#include "testkit/fault.h"
#include "testkit/generators.h"
#include "testkit/golden.h"

#ifndef ENW_GOLDEN_DIR
#define ENW_GOLDEN_DIR "tests/golden"
#endif

namespace enw {
namespace {

using testkit::as_row;
using testkit::differential_check;
using testkit::Divergence;
using testkit::first_divergence;
using testkit::ThreadScope;
using testkit::TolerancePolicy;
using testkit::ulp_distance;

// ---------------------------------------------------------------------------
// ULP distance + tolerance policies.
// ---------------------------------------------------------------------------

TEST(UlpDistance, IdenticalBitsAreZero) {
  EXPECT_EQ(ulp_distance(1.5f, 1.5f), 0u);
  EXPECT_EQ(ulp_distance(0.0f, 0.0f), 0u);
  const float nan = std::nanf("");
  EXPECT_EQ(ulp_distance(nan, nan), 0u);  // same bit pattern
}

TEST(UlpDistance, AdjacentFloatsAreOneUlpApart) {
  const float a = 1.0f;
  const float b = std::nextafterf(a, 2.0f);
  EXPECT_EQ(ulp_distance(a, b), 1u);
  EXPECT_EQ(ulp_distance(b, a), 1u);
}

TEST(UlpDistance, CrossesZeroContinuously) {
  // Smallest positive and negative subnormals are 2 apart (one step to each
  // side of zero), and +0/-0 occupy the same point on the line.
  const float tiny = std::nextafterf(0.0f, 1.0f);
  EXPECT_EQ(ulp_distance(-tiny, tiny), 2u);
  EXPECT_EQ(ulp_distance(0.0f, -0.0f), 0u);
  EXPECT_EQ(ulp_distance(-FLT_MIN, FLT_MIN), ulp_distance(0.0f, FLT_MIN) * 2);
}

TEST(UlpDistance, NanMismatchIsMax) {
  EXPECT_EQ(ulp_distance(std::nanf(""), 1.0f), UINT64_MAX);
  EXPECT_EQ(ulp_distance(1.0f, std::nanf("")), UINT64_MAX);
}

TEST(TolerancePolicy, BitwiseIsExactBitEquality) {
  const TolerancePolicy p = TolerancePolicy::bitwise();
  EXPECT_TRUE(p.accepts(1.25f, 1.25f));
  // +0 and -0 are zero ULPs apart but have different bits: bitwise rejects.
  EXPECT_FALSE(p.accepts(0.0f, -0.0f));
  EXPECT_FALSE(p.accepts(1.0f, std::nextafterf(1.0f, 2.0f)));
}

TEST(TolerancePolicy, UlpsAcceptNearbyAndEqualNans) {
  const TolerancePolicy p = TolerancePolicy::ulps(2);
  EXPECT_TRUE(p.accepts(1.0f, std::nextafterf(1.0f, 2.0f)));
  EXPECT_TRUE(p.accepts(0.0f, -0.0f));
  EXPECT_FALSE(p.accepts(1.0f, 1.0f + 1e-3f));
  EXPECT_TRUE(p.accepts(std::nanf(""), std::nanf("0x1")));  // non-bitwise: NaN==NaN
  EXPECT_FALSE(TolerancePolicy::bitwise().accepts(std::nanf(""), std::nanf("0x1")));
}

TEST(TolerancePolicy, AbsSlackRescuesNearZero) {
  // 1e-8 vs 0: astronomically many ULPs apart, tiny absolute difference.
  TolerancePolicy p;
  p.abs_slack = 1e-6f;
  EXPECT_TRUE(p.accepts(1e-8f, 0.0f));
  EXPECT_FALSE(p.accepts(1.0f, 1.1f));
}

// ---------------------------------------------------------------------------
// first_divergence.
// ---------------------------------------------------------------------------

TEST(FirstDivergence, ReportsFirstMismatchIndex) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> b = a;
  b[2] = 3.5f;
  b[3] = 9.0f;
  const Divergence d = first_divergence(std::span<const float>(a),
                                        std::span<const float>(b));
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 2u);
  EXPECT_EQ(d.lhs, 3.0f);
  EXPECT_EQ(d.rhs, 3.5f);
  EXPECT_NE(d.report().find("first divergence"), std::string::npos);
}

TEST(FirstDivergence, EqualAndEmptySpansAreClean) {
  const std::vector<float> a = {1.0f, 2.0f};
  EXPECT_TRUE(first_divergence(std::span<const float>(a),
                               std::span<const float>(a)).ok());
  EXPECT_TRUE(first_divergence(std::span<const float>(),
                               std::span<const float>()).ok());
}

TEST(FirstDivergence, SizeMismatchDiverges) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {1.0f, 2.0f};
  const Divergence d = first_divergence(std::span<const float>(a),
                                        std::span<const float>(b));
  ASSERT_TRUE(d.diverged);
  EXPECT_NE(d.context.find("size mismatch"), std::string::npos);
}

TEST(FirstDivergence, MatrixOverloadFillsRowCol) {
  Rng rng(3);
  const Matrix a = testkit::random_matrix(rng, 4, 5);
  Matrix b = a;
  b(2, 3) += 1.0f;
  const Divergence d = first_divergence(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.row, 2u);
  EXPECT_EQ(d.col, 3u);
  EXPECT_EQ(d.index, 2u * 5 + 3);
}

TEST(FirstDivergence, MatrixShapeMismatchDiverges) {
  const Divergence d = first_divergence(Matrix(2, 3), Matrix(3, 2));
  ASSERT_TRUE(d.diverged);
  EXPECT_NE(d.context.find("shape mismatch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Generators: reproducibility + option semantics.
// ---------------------------------------------------------------------------

TEST(Generators, SameSeedSameMatrix) {
  Rng a(42), b(42);
  testkit::MatrixGenOptions opts;
  opts.zero_fraction = 0.3;
  opts.specials = true;
  const Matrix ma = testkit::random_matrix(a, 13, 17, opts);
  const Matrix mb = testkit::random_matrix(b, 13, 17, opts);
  EXPECT_TRUE(first_divergence(ma, mb).ok());
}

TEST(Generators, ZeroFractionProducesExactZeros) {
  Rng rng(7);
  testkit::MatrixGenOptions opts;
  opts.zero_fraction = 0.5;
  const Matrix m = testkit::random_matrix(rng, 32, 32, opts);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, m.size() / 4);
  EXPECT_LT(zeros, 3 * m.size() / 4);
}

TEST(Generators, SpecialsInjectEdgeValues) {
  Rng rng(8);
  testkit::MatrixGenOptions opts;
  opts.specials = true;
  const Matrix m = testkit::random_matrix(rng, 64, 64, opts);
  bool saw_special = false;
  for (std::size_t i = 0; i < m.size(); ++i) {
    const float v = std::abs(m.data()[i]);
    if (v != 0.0f && (v >= 1e29f || v <= 1e-29f)) saw_special = true;
  }
  EXPECT_TRUE(saw_special);
}

TEST(Generators, BatchSpecsStayInBounds) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const testkit::BatchSpec s = testkit::random_batch_spec(rng, 16, 24);
    EXPECT_LE(s.batch, 16u);
    EXPECT_GE(s.in_dim, 1u);
    EXPECT_LE(s.in_dim, 24u);
    EXPECT_GE(s.out_dim, 1u);
    EXPECT_LE(s.out_dim, 24u);
  }
}

// ---------------------------------------------------------------------------
// Differential checks: the four equivalences named in the design.
// ---------------------------------------------------------------------------

TEST(Differential, PerSampleVsBatchIsBitwise) {
  Rng rng(21);
  nn::DigitalLinear ops(11, 19, rng);
  const Matrix x = testkit::random_matrix(rng, 7, 19);
  const auto r = differential_check(
      "per-sample",
      [&] {
        Matrix y(x.rows(), 11);
        for (std::size_t s = 0; s < x.rows(); ++s) ops.forward(x.row(s), y.row(s));
        return y;
      },
      "batched",
      [&] {
        Matrix y(x.rows(), 11);
        ops.forward_batch(x, y);
        return y;
      });
  EXPECT_TRUE(r.ok()) << r.report();
}

TEST(Differential, OneThreadVsEightIsBitwise) {
  Rng rng(22);
  const Matrix a = testkit::random_matrix(rng, 41, 33);
  const Matrix b = testkit::random_matrix(rng, 33, 27);
  const auto r = differential_check(
      "threads=1", [&] { return testkit::with_threads(1, [&] { return matmul(a, b); }); },
      "threads=8", [&] { return testkit::with_threads(8, [&] { return matmul(a, b); }); });
  EXPECT_TRUE(r.ok()) << r.report();
}

TEST(Differential, BlockedKernelVsReferenceIsBitwise) {
  // Bitwise blocked-vs-reference only holds on the blocked backend; under
  // the ambient default (simd on capable hosts) matmul means FMA kernels.
  testkit::BackendScope backend("blocked");
  Rng rng(23);
  const Matrix a = testkit::random_matrix(rng, 37, 45);
  const Matrix b = testkit::random_matrix(rng, 45, 31);
  const Vector x = testkit::random_vector(rng, 45);
  const auto mm = differential_check(
      "blocked", [&] { return matmul(a, b); },
      "reference", [&] { return matmul_reference(a, b); });
  EXPECT_TRUE(mm.ok()) << mm.report();
  const auto mv = differential_check(
      "blocked", [&] { return as_row(matvec(a, x)); },
      "reference", [&] { return as_row(matvec_reference(a, x)); });
  EXPECT_TRUE(mv.ok()) << mv.report();
}

TEST(Differential, DigitalVsZeroNoiseAnalogWithinUlps) {
  Rng rng(24);
  const std::size_t rows = 9, cols = 13;
  Matrix w = testkit::random_matrix(rng, rows, cols, {0.3f, 0.0, false});
  analog::AnalogMatrixConfig cfg;  // ideal device, zero noise, no DAC/ADC
  analog::AnalogMatrix array(rows, cols, cfg);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) array.set_state(r, c, w(r, c));
  }
  const Vector x = testkit::random_vector(rng, cols, {0.5f, 0.0, false});
  // The analog read normalizes inputs by max-abs and rescales the output
  // ("noise management"), so the arithmetic legitimately differs from the
  // digital matvec by a few rounding steps per element — the exact situation
  // bounded-ULP policies exist for.
  TolerancePolicy p;
  p.max_ulps = 128;
  p.abs_slack = 1e-5f;
  const auto r = differential_check(
      "digital", [&] { return as_row(matvec(w, x)); },
      "analog-zero-noise",
      [&] {
        Vector y(rows, 0.0f);
        array.forward(x, y);
        return as_row(y);
      },
      p);
  EXPECT_TRUE(r.ok()) << r.report();
}

// ---------------------------------------------------------------------------
// Fault injection: analog device hooks.
// ---------------------------------------------------------------------------

TEST(FaultInjection, StuckCellDivergesFromDigitalReference) {
  const std::size_t rows = 6, cols = 8;
  Rng rng(31);
  analog::AnalogMatrixConfig cfg;
  analog::AnalogMatrix array(rows, cols, cfg);
  const Matrix w = testkit::random_matrix(rng, rows, cols, {0.2f, 0.0, false});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) array.set_state(r, c, w(r, c));
  }
  array.inject_stuck(2, 3, 0.95f);
  Vector x(cols, 1.0f);  // every column contributes, so row 2 must shift
  const auto r = differential_check(
      "digital-reference", [&] { return as_row(matvec(w, x)); },
      "analog-faulted",
      [&] {
        Vector y(rows, 0.0f);
        array.forward(x, y);
        return as_row(y);
      },
      TolerancePolicy{128, 1e-5f});
  ASSERT_FALSE(r.ok()) << "stuck cell went undetected";
  EXPECT_EQ(r.div.col, 2u);  // output index == faulted row (1 x rows layout)
}

TEST(FaultInjection, StuckCellIgnoresPulsesAndProgramming) {
  analog::AnalogMatrixConfig cfg;
  analog::AnalogMatrix array(4, 4, cfg);
  array.inject_stuck(1, 2, 0.5f);
  EXPECT_EQ(array.weights_snapshot()(1, 2), 0.5f);
  array.pulse_element(1, 2, 25);
  EXPECT_EQ(array.weights_snapshot()(1, 2), 0.5f);
  Matrix target(4, 4, 0.1f);
  array.program(target);
  EXPECT_EQ(array.weights_snapshot()(1, 2), 0.5f);
  // A healthy neighbour did move.
  EXPECT_NEAR(array.weights_snapshot()(0, 0), 0.1f, 0.05f);
}

TEST(FaultInjection, StuckShortReadsOutsideLogicalRange) {
  analog::AnalogMatrixConfig cfg;
  analog::AnalogMatrix array(3, 3, cfg);
  array.inject_stuck(0, 0, 12.0f);  // far beyond w_max = 1
  EXPECT_EQ(array.weights_snapshot()(0, 0), 12.0f);
}

TEST(FaultInjection, PcmExtraDriftDivergesAfterTime) {
  analog::PcmArrayConfig cfg;
  cfg.read_noise_std = 0.0;
  Rng rng(32);
  const Matrix w = testkit::random_matrix(rng, 4, 6, {0.3f, 0.0, false});
  analog::PcmPairArray healthy(4, 6, cfg);
  analog::PcmPairArray faulted(4, 6, cfg);
  healthy.program(w);
  faulted.program(w);
  // Same config + same seed: the twins are bitwise identical before the
  // fault.
  EXPECT_TRUE(
      first_divergence(healthy.weights_snapshot(), faulted.weights_snapshot())
          .ok());
  faulted.inject_extra_drift(0.2);
  healthy.advance_time(1e4);
  faulted.advance_time(1e4);
  const Divergence d = first_divergence(healthy.weights_snapshot(),
                                        faulted.weights_snapshot(),
                                        TolerancePolicy{64, 1e-4f});
  EXPECT_TRUE(d.diverged) << "extra drift went undetected";
}

// ---------------------------------------------------------------------------
// Fault injection: process-level hooks (pool schedule, allocator).
// ---------------------------------------------------------------------------

TEST(FaultInjection, PoolReverseOrderIsBenign) {
  ThreadScope scope(8);
  Rng rng(33);
  const Matrix a = testkit::random_matrix(rng, 45, 37);
  const Matrix b = testkit::random_matrix(rng, 37, 29);
  const Matrix clean = matmul(a, b);
  testkit::FaultSpec spec;
  spec.kind = testkit::FaultKind::kPoolReverseOrder;
  {
    testkit::ScopedProcessFault fault(spec);
    EXPECT_TRUE(fault::armed(fault::kPoolReverse));
    const Matrix reordered = matmul(a, b);
    const Divergence d = first_divergence(clean, reordered);
    EXPECT_TRUE(d.ok()) << "chunk reordering changed results: " << d.report();
  }
  EXPECT_FALSE(fault::any_armed());
}

TEST(FaultInjection, PoolDelayIsBenign) {
  ThreadScope scope(4);
  Rng rng(34);
  const Matrix a = testkit::random_matrix(rng, 24, 18);
  const Matrix b = testkit::random_matrix(rng, 18, 16);
  const Matrix clean = matmul(a, b);
  testkit::FaultSpec spec;
  spec.kind = testkit::FaultKind::kPoolDelay;
  spec.delay_us = 50;
  {
    testkit::ScopedProcessFault fault(spec);
    const Matrix delayed = matmul(a, b);
    const Divergence d = first_divergence(clean, delayed);
    EXPECT_TRUE(d.ok()) << "delayed workers changed results: " << d.report();
  }
  EXPECT_FALSE(fault::any_armed());
}

TEST(FaultInjection, AllocFailureIsOneShot) {
  fault::arm_alloc_failure(0);
  EXPECT_THROW({ Matrix m(8, 8); }, std::bad_alloc);
  // The shim disarms itself when it fires, so recovery is immediate.
  EXPECT_FALSE(fault::armed(fault::kAllocFail));
  Matrix ok(8, 8);
  EXPECT_EQ(ok.rows(), 8u);
  fault::disarm_all();
}

TEST(FaultInjection, AllocFailureHonorsCountdown) {
  fault::arm_alloc_failure(2);
  Matrix a(2, 2);
  Matrix b(3, 3);
  EXPECT_THROW({ Matrix c(4, 4); }, std::bad_alloc);
  fault::disarm_all();
}

TEST(FaultInjection, CampaignSpecsAreDeterministicAndPrefixStable) {
  const auto a = testkit::fault_campaign(7, 24, 12, 16);
  const auto b = testkit::fault_campaign(7, 24, 12, 16);
  const auto longer = testkit::fault_campaign(7, 36, 12, 16);
  ASSERT_EQ(a.size(), 24u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].describe(), b[i].describe()) << "fault " << i;
    EXPECT_EQ(a[i].describe(), longer[i].describe())
        << "campaign prefix not stable at fault " << i;
  }
  // Round-robin kinds: every hook class appears.
  bool seen[6] = {};
  for (const auto& s : a) seen[static_cast<int>(s.kind)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// ---------------------------------------------------------------------------
// Golden traces.
// ---------------------------------------------------------------------------

TEST(GoldenTrace, HexFloatRoundTripIsBitwise) {
  testkit::Trace t;
  const std::vector<float> edge = {0.0f,    -0.0f,       1e-41f,     -1e-41f,
                                   FLT_MAX, -FLT_MAX,    FLT_MIN,    1.0f / 3.0f,
                                   1e30f,   std::nextafterf(1.0f, 2.0f), -2.5f, 42.0f};
  t.record("edges", std::span<const float>(edge));
  Rng rng(41);
  t.record("mat", testkit::random_matrix(rng, 3, 5));
  const std::string path = testing::TempDir() + "enw_trace_roundtrip.trace";
  t.save(path);
  const testkit::Trace back = testkit::Trace::load(path);
  const Divergence d = testkit::compare_traces(t, back);
  EXPECT_TRUE(d.ok()) << d.report();
  std::remove(path.c_str());
}

TEST(GoldenTrace, CompareDetectsNameShapeAndValueDrift) {
  testkit::Trace a, b, c, d;
  const std::vector<float> v = {1.0f, 2.0f};
  a.record("x", std::span<const float>(v));
  b.record("y", std::span<const float>(v));
  EXPECT_TRUE(testkit::compare_traces(a, b).diverged);
  c.record("x", Matrix(2, 1, 1.0f));
  EXPECT_TRUE(testkit::compare_traces(a, c).diverged);
  const std::vector<float> v2 = {1.0f, 2.5f};
  d.record("x", std::span<const float>(v2));
  const Divergence div = testkit::compare_traces(a, d);
  ASSERT_TRUE(div.diverged);
  EXPECT_NE(div.context.find("'x'"), std::string::npos);
  EXPECT_EQ(div.index, 1u);
}

TEST(GoldenTrace, MissingFileExplainsRegeneration) {
  unsetenv("ENW_GOLDEN_UPDATE");
  testkit::Trace t;
  const std::vector<float> v = {1.0f};
  t.record("x", std::span<const float>(v));
  const Divergence d =
      testkit::golden_check(testing::TempDir() + "enw_no_such.trace", t);
  ASSERT_TRUE(d.diverged);
  EXPECT_NE(d.context.find("ENW_GOLDEN_UPDATE"), std::string::npos);
}

TEST(GoldenTrace, UpdateThenCheckPassesBitwise) {
  const std::string path = testing::TempDir() + "enw_update_check.trace";
  testkit::Trace t;
  Rng rng(42);
  t.record("m", testkit::random_matrix(rng, 4, 4, {1.0f, 0.0, true}));
  setenv("ENW_GOLDEN_UPDATE", "1", 1);
  EXPECT_TRUE(testkit::golden_check(path, t).ok());
  unsetenv("ENW_GOLDEN_UPDATE");
  const Divergence d = testkit::golden_check(path, t);
  EXPECT_TRUE(d.ok()) << d.report();
  std::remove(path.c_str());
}

/// Builds the committed-golden workload: a ReLU MLP with integer-derived
/// weights (no libm, no RNG) so the recorded logits are reproducible across
/// machines up to FP contraction, which the build turns off in every TU.
testkit::Trace mlp_forward_trace() {
  nn::MlpConfig cfg;
  cfg.dims = {12, 9, 5};
  cfg.hidden_activation = nn::Activation::kRelu;
  Rng rng(1);
  nn::Mlp net(cfg, nn::DigitalLinear::factory(rng));
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    nn::DenseLayer& layer = net.layer(l);
    Matrix w(layer.out_dim(), layer.in_dim());
    for (std::size_t r = 0; r < w.rows(); ++r) {
      for (std::size_t c = 0; c < w.cols(); ++c) {
        w(r, c) = static_cast<float>(static_cast<int>((r * 7 + c * 3 + l) % 11) - 5) / 8.0f;
      }
    }
    layer.ops().set_weights(w);
    Vector b(layer.out_dim());
    for (std::size_t r = 0; r < b.size(); ++r) {
      b[r] = static_cast<float>(static_cast<int>((r * 5 + l) % 7) - 3) / 16.0f;
    }
    layer.set_bias(b);
  }
  Matrix x(3, 12);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      x(r, c) = static_cast<float>(static_cast<int>((r * 13 + c * 5) % 17) - 8) / 8.0f;
    }
  }
  testkit::Trace t;
  t.record("input", x);
  Matrix logits(x.rows(), 5);
  for (std::size_t s = 0; s < x.rows(); ++s) {
    Vector h(x.cols());
    for (std::size_t c = 0; c < x.cols(); ++c) h[c] = x(s, c);
    for (std::size_t l = 0; l < net.layer_count(); ++l) h = net.layer(l).infer(h);
    for (std::size_t c = 0; c < 5; ++c) logits(s, c) = h[c];
  }
  t.record("logits", logits);
  return t;
}

TEST(GoldenTrace, CommittedMlpForwardMatchesGolden) {
  const Divergence d = testkit::golden_check(
      std::string(ENW_GOLDEN_DIR) + "/mlp_forward.trace", mlp_forward_trace(),
      TolerancePolicy::ulps(32));
  EXPECT_TRUE(d.ok()) << d.report();
}

// ---------------------------------------------------------------------------
// LinearOps batch-fallback coverage: a custom backend that overrides none of
// the batch methods, so the defaults (per-sample loops) must carry it.
// ---------------------------------------------------------------------------

class CountingOps final : public nn::LinearOps {
 public:
  CountingOps(std::size_t out_dim, std::size_t in_dim) : w_(out_dim, in_dim) {
    for (std::size_t r = 0; r < out_dim; ++r) {
      for (std::size_t c = 0; c < in_dim; ++c) {
        w_(r, c) = 0.25f * static_cast<float>(static_cast<int>((r + 2 * c) % 5) - 2);
      }
    }
  }

  std::size_t out_dim() const override { return w_.rows(); }
  std::size_t in_dim() const override { return w_.cols(); }

  void forward(std::span<const float> x, std::span<float> y) override {
    ++forward_calls;
    for (std::size_t r = 0; r < w_.rows(); ++r) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < w_.cols(); ++c) acc += w_(r, c) * x[c];
      y[r] = acc;
    }
  }

  void backward(std::span<const float> dy, std::span<float> dx) override {
    ++backward_calls;
    for (std::size_t c = 0; c < w_.cols(); ++c) {
      float acc = 0.0f;
      for (std::size_t r = 0; r < w_.rows(); ++r) acc += w_(r, c) * dy[r];
      dx[c] = acc;
    }
  }

  void update(std::span<const float> x, std::span<const float> dy,
              float lr) override {
    ++update_calls;
    for (std::size_t r = 0; r < w_.rows(); ++r) {
      for (std::size_t c = 0; c < w_.cols(); ++c) w_(r, c) -= lr * dy[r] * x[c];
    }
  }

  Matrix weights() const override { return w_; }
  void set_weights(const Matrix& w) override { w_ = w; }

  int forward_calls = 0;
  int backward_calls = 0;
  int update_calls = 0;

 private:
  Matrix w_;
};

TEST(LinearOpsFallback, DefaultBatchPathsMatchPerSampleLoops) {
  Rng rng(51);
  for (int trial = 0; trial < 8; ++trial) {
    const testkit::BatchSpec spec = testkit::random_batch_spec(rng, 9, 15);
    CountingOps batched(spec.out_dim, spec.in_dim);
    CountingOps sequential(spec.out_dim, spec.in_dim);
    const Matrix x = testkit::random_matrix(rng, spec.batch, spec.in_dim);
    const Matrix dy = testkit::random_matrix(rng, spec.batch, spec.out_dim);

    Matrix y_batch(spec.batch, spec.out_dim);
    batched.forward_batch(x, y_batch);
    EXPECT_EQ(batched.forward_calls, static_cast<int>(spec.batch));
    Matrix y_seq(spec.batch, spec.out_dim);
    for (std::size_t s = 0; s < spec.batch; ++s)
      sequential.forward(x.row(s), y_seq.row(s));
    EXPECT_TRUE(first_divergence(y_batch, y_seq).ok()) << "spec " << trial;

    Matrix dx_batch(spec.batch, spec.in_dim);
    batched.backward_batch(dy, dx_batch);
    Matrix dx_seq(spec.batch, spec.in_dim);
    for (std::size_t s = 0; s < spec.batch; ++s)
      sequential.backward(dy.row(s), dx_seq.row(s));
    EXPECT_TRUE(first_divergence(dx_batch, dx_seq).ok()) << "spec " << trial;

    batched.update_batch(x, dy, 0.05f);
    for (std::size_t s = 0; s < spec.batch; ++s)
      sequential.update(x.row(s), dy.row(s), 0.05f);
    EXPECT_TRUE(first_divergence(batched.weights(), sequential.weights()).ok())
        << "spec " << trial;
  }
}

TEST(LinearOpsFallback, EmptyBatchTouchesNothing) {
  CountingOps ops(5, 7);
  const Matrix before = ops.weights();
  Matrix x(0, 7);
  Matrix y(0, 5);
  ops.forward_batch(x, y);
  Matrix dy(0, 5);
  Matrix dx(0, 7);
  ops.backward_batch(dy, dx);
  ops.update_batch(x, dy, 0.1f);
  EXPECT_EQ(ops.forward_calls, 0);
  EXPECT_EQ(ops.backward_calls, 0);
  EXPECT_EQ(ops.update_calls, 0);
  EXPECT_TRUE(first_divergence(before, ops.weights()).ok());
}

TEST(LinearOpsFallback, EmptyBatchOnOverriddenBackends) {
  Rng rng(52);
  nn::DigitalLinear digital(5, 7, rng);
  Matrix x(0, 7);
  Matrix y(0, 5);
  digital.forward_batch(x, y);  // GEMM override must survive 0 rows
  Matrix dy(0, 5);
  Matrix dx(0, 7);
  digital.backward_batch(dy, dx);
  digital.update_batch(x, dy, 0.1f);

  analog::AnalogMatrixConfig cfg;
  analog::AnalogLinear analog_ops(5, 7, cfg, rng);
  analog_ops.forward_batch(x, y);
  EXPECT_EQ(y.rows(), 0u);
}

TEST(LinearOpsFallback, ZeroDimensionKernels) {
  // Inner dimension 0: the product is a well-defined matrix of zeros.
  const Matrix a(3, 0);
  const Matrix b(0, 4);
  const Matrix c = matmul(a, b);
  ASSERT_EQ(c.rows(), 3u);
  ASSERT_EQ(c.cols(), 4u);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 0.0f);
  // Zero-row operand.
  const Matrix d = matmul(Matrix(0, 5), Matrix(5, 2));
  EXPECT_EQ(d.rows(), 0u);
  EXPECT_EQ(d.cols(), 2u);
  const Matrix t = transpose(Matrix(0, 5));
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 0u);
}

}  // namespace
}  // namespace enw
