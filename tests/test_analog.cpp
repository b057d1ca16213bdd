// Tests for src/analog: device models, crossbar array, pulsed updates,
// zero-shift, Tiki-Taka, mixed precision, PCM pair arrays.
#include <gtest/gtest.h>

#include <cmath>

#include "analog/analog_linear.h"
#include "analog/analog_matrix.h"
#include "analog/device.h"
#include "analog/pcm.h"
#include "analog/tiki_taka.h"
#include "nn/mlp.h"
#include "tensor/ops.h"

namespace enw::analog {
namespace {

TEST(Device, IdealIsSymmetric) {
  Rng rng(1);
  const DeviceInstance d = sample_device(ideal_device(0.002), rng);
  EXPECT_FLOAT_EQ(d.dw_up, 0.002f);
  EXPECT_FLOAT_EQ(d.dw_down, 0.002f);
  EXPECT_FALSE(d.stuck);
  float w = 0.0f;
  w = apply_pulse(d, w, true, 0.0, rng);
  EXPECT_NEAR(w, 0.002f, 1e-7f);
  w = apply_pulse(d, w, false, 0.0, rng);
  EXPECT_NEAR(w, 0.0f, 1e-7f);
}

TEST(Device, HardBoundsRespected) {
  Rng rng(2);
  const DeviceInstance d = sample_device(ideal_device(0.1), rng);
  float w = 0.95f;
  for (int i = 0; i < 10; ++i) w = apply_pulse(d, w, true, 0.0, rng);
  EXPECT_LE(w, d.w_max + 1e-6f);
  w = -0.95f;
  for (int i = 0; i < 10; ++i) w = apply_pulse(d, w, false, 0.0, rng);
  EXPECT_GE(w, d.w_min - 1e-6f);
}

TEST(Device, SoftBoundsShrinkStepNearBound) {
  Rng rng(3);
  DevicePreset p = ideal_device(0.01);
  p.slope_up = 1.0;
  const DeviceInstance d = sample_device(p, rng);
  const float step_at_zero = apply_pulse(d, 0.0f, true, 0.0, rng) - 0.0f;
  const float step_near_max = apply_pulse(d, 0.9f, true, 0.0, rng) - 0.9f;
  EXPECT_GT(step_at_zero, step_near_max * 5.0f);
}

TEST(Device, StuckDevicesNeverMove) {
  Rng rng(4);
  DevicePreset p = ideal_device();
  p.stuck_fraction = 1.0;
  const DeviceInstance d = sample_device(p, rng);
  EXPECT_TRUE(d.stuck);
  EXPECT_FLOAT_EQ(apply_pulse(d, 0.3f, true, 0.0, rng), 0.3f);
}

TEST(Device, DeviceToDeviceVariationSpreadsSteps) {
  Rng rng(5);
  DevicePreset p = ideal_device(0.002);
  p.dtod_dw = 0.3;
  float min_dw = 1e9f, max_dw = 0.0f;
  for (int i = 0; i < 200; ++i) {
    const DeviceInstance d = sample_device(p, rng);
    min_dw = std::min(min_dw, d.dw_up);
    max_dw = std::max(max_dw, d.dw_up);
  }
  EXPECT_LT(min_dw, 0.0015f);
  EXPECT_GT(max_dw, 0.0025f);
}

TEST(Device, SymmetryPointPulsePairsConvergeToIt) {
  Rng rng(6);
  DevicePreset p;
  p.dw_up = 0.01;
  p.dw_down = 0.015;
  p.slope_up = 1.0;
  p.slope_down = 1.0;
  const DeviceInstance d = sample_device(p, rng);
  const float target = symmetry_point(d);
  float w = 0.8f;
  for (int i = 0; i < 2000; ++i) {
    w = apply_pulse(d, w, true, 0.0, rng);
    w = apply_pulse(d, w, false, 0.0, rng);
  }
  EXPECT_NEAR(w, target, 0.03f);
}

TEST(Device, PresetsHaveDistinctCharacters) {
  EXPECT_EQ(pcm_single_device().dw_down, 0.0);
  EXPECT_GT(rram_device().sigma_ctoc, ecram_device().sigma_ctoc);
  EXPECT_LT(std::abs(ecram_device().dw_up - ecram_device().dw_down),
            std::abs(rram_device().dw_up - rram_device().dw_down));
}

AnalogMatrixConfig ideal_array_config() {
  AnalogMatrixConfig c;
  c.device = ideal_device();
  c.read_noise_std = 0.0;
  c.dac_bits = 0;
  c.adc_bits = 0;
  return c;
}

TEST(AnalogMatrix, ProgramThenReadMatchesTarget) {
  AnalogMatrix m(4, 6, ideal_array_config());
  Rng rng(7);
  const Matrix target = Matrix::uniform(4, 6, -0.8f, 0.8f, rng);
  m.program(target);
  const Matrix got = m.weights_snapshot();
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 6; ++c) EXPECT_NEAR(got(r, c), target(r, c), 0.01f);
}

TEST(AnalogMatrix, ForwardMatchesDigitalWhenIdeal) {
  AnalogMatrix m(5, 8, ideal_array_config());
  Rng rng(8);
  const Matrix target = Matrix::uniform(5, 8, -0.5f, 0.5f, rng);
  m.program(target);
  Vector x(8);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  Vector y(5, 0.0f);
  m.forward(x, y);
  const Vector ref = matvec(m.weights_snapshot(), x);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(y[i], ref[i], 0.02f);
}

TEST(AnalogMatrix, BackwardIsTransposeRead) {
  AnalogMatrix m(5, 8, ideal_array_config());
  Rng rng(9);
  m.program(Matrix::uniform(5, 8, -0.5f, 0.5f, rng));
  Vector dy(5);
  for (auto& v : dy) v = static_cast<float>(rng.uniform(-1, 1));
  Vector dx(8, 0.0f);
  m.backward(dy, dx);
  const Vector ref = matvec_transposed(m.weights_snapshot(), dy);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(dx[i], ref[i], 0.02f);
}

TEST(AnalogMatrix, ReadNoiseHasRequestedScale) {
  AnalogMatrixConfig cfg = ideal_array_config();
  cfg.read_noise_std = 0.05;
  AnalogMatrix m(1, 4, cfg);
  Rng rng(10);
  m.program(Matrix::constant(1, 4, 0.5f));
  Vector x{1.0f, 1.0f, 1.0f, 1.0f};
  Vector y(1, 0.0f);
  double mean = 0.0, sq = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    m.forward(x, y);
    mean += y[0];
    sq += static_cast<double>(y[0]) * y[0];
  }
  mean /= n;
  const double stddev = std::sqrt(sq / n - mean * mean);
  EXPECT_NEAR(mean, 2.0, 0.05);
  // Expected noise std = read_noise_std * ||x|| = 0.05 * 2 = 0.1.
  EXPECT_NEAR(stddev, 0.1, 0.03);
}

TEST(AnalogMatrix, AdcQuantizationCoarsensOutputs) {
  AnalogMatrixConfig cfg = ideal_array_config();
  cfg.adc_bits = 4;
  cfg.adc_range = 4.0;
  AnalogMatrix m(1, 2, cfg);
  Rng rng(11);
  m.program(Matrix{{0.31f, 0.17f}});
  Vector y(1, 0.0f);
  Vector x{1.0f, 1.0f};
  m.forward(x, y);
  // With 4-bit ADC over [-4, 4], the grid is 4/7; output must sit on it.
  const float grid = 4.0f / 7.0f;
  const float ratio = y[0] / grid;
  EXPECT_NEAR(ratio, std::nearbyint(ratio), 1e-3f);
}

TEST(AnalogMatrix, IrDropAttenuatesFarCorner) {
  AnalogMatrixConfig cfg = ideal_array_config();
  cfg.ir_drop = 0.2;
  AnalogMatrix m(10, 10, cfg);
  m.program(Matrix::constant(10, 10, 0.5f));
  Vector x(10, 1.0f);
  Vector y(10, 0.0f);
  m.forward(x, y);
  // Later rows see more attenuation.
  EXPECT_GT(y[0], y[9]);
}

TEST(AnalogMatrix, PulsedUpdateIsUnbiased) {
  // Average realized dW over many trials against -lr * d x^T.
  Rng rng(12);
  Vector x{0.8f, -0.4f, 0.2f};
  Vector d{-0.6f, 0.3f};
  const float lr = 0.05f;
  Matrix mean_dw(2, 3, 0.0f);
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    AnalogMatrixConfig cfg = ideal_array_config();
    cfg.seed = 1000 + static_cast<std::uint64_t>(t);
    AnalogMatrix m(2, 3, cfg);
    m.program(Matrix(2, 3, 0.0f));
    const Matrix before = m.weights_snapshot();
    m.pulsed_update(x, d, lr);
    Matrix after = m.weights_snapshot();
    after -= before;
    mean_dw += after;
  }
  mean_dw *= 1.0f / static_cast<float>(trials);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      const float expected = -lr * d[r] * x[c];
      EXPECT_NEAR(mean_dw(r, c), expected, 0.005f) << r << "," << c;
    }
  }
}

TEST(AnalogMatrix, PulseElementDirection) {
  AnalogMatrix m(2, 2, ideal_array_config());
  m.set_state(0, 0, 0.0f);
  m.pulse_element(0, 0, 5);
  EXPECT_NEAR(m.state(0, 0), 5 * 0.002f, 1e-5f);
  m.pulse_element(0, 0, -3);
  EXPECT_NEAR(m.state(0, 0), 2 * 0.002f, 1e-5f);
}

TEST(AnalogMatrix, StuckDevicesSurviveProgramming) {
  AnalogMatrixConfig cfg = ideal_array_config();
  cfg.device.stuck_fraction = 1.0;
  AnalogMatrix m(3, 3, cfg);
  const Matrix before = m.weights_snapshot();
  m.program(Matrix::constant(3, 3, 0.7f));
  const Matrix after = m.weights_snapshot();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_FLOAT_EQ(after.data()[i], before.data()[i]);
}

TEST(AnalogMatrix, ProgramPastSoftBoundEndsJustBelowIt) {
  // An rram device saturates softly toward w = 1 / slope_up = 1: each up
  // step is dw_up * (1 - w). With its hard bound w_max beyond that point, a
  // goal past the soft bound is unreachable, and programming must settle
  // just below the soft bound instead of firing ever more pulses as the step
  // vanishes.
  AnalogMatrixConfig cfg = ideal_array_config();
  cfg.device = rram_device();
  cfg.device.sigma_ctoc = 0.0;
  cfg.device.dtod_dw = 0.0;
  cfg.device.dtod_bounds = 0.0;
  cfg.device.w_max = 1.28;
  AnalogMatrix m(1, 1, cfg);
  ASSERT_EQ(m.device(0, 0).slope_up, 1.0f);
  m.program(Matrix::constant(1, 1, 1.2f));
  EXPECT_LE(m.state(0, 0), 1.0f);
  EXPECT_GE(m.state(0, 0), 1.0f - 1e-3f);
}

TEST(AnalogMatrix, ProgramRejectsAPulseCountPastIntMaxBeforeFiring) {
  // From 0 toward 0.5 in steps of 1e-10 is 5e9 pulses, past INT_MAX: the
  // pass must reject the goal and leave the cell where it was.
  AnalogMatrixConfig cfg = ideal_array_config();
  cfg.device = ideal_device(1e-10);
  AnalogMatrix m(1, 1, cfg);
  m.set_state(0, 0, 0.0f);
  EXPECT_THROW(m.program(Matrix::constant(1, 1, 0.5f)), std::invalid_argument);
  EXPECT_EQ(m.state(0, 0), 0.0f);
}

TEST(AnalogMatrix, ProgramWithATinyStepEndsWithinOneStep) {
  // 5e5 pulses of 1e-6 per pass are in range and converge on the goal.
  AnalogMatrixConfig cfg = ideal_array_config();
  cfg.device = ideal_device(1e-6);
  AnalogMatrix m(1, 1, cfg);
  m.set_state(0, 0, 0.0f);
  m.program(Matrix::constant(1, 1, 0.5f));
  EXPECT_NEAR(m.state(0, 0), 0.5f, 1e-6f);
}

TEST(ZeroShift, CalibrationLandsOnSymmetryPoints) {
  AnalogMatrixConfig cfg;
  cfg.device = rram_device();
  cfg.device.sigma_ctoc = 0.0;  // deterministic for the test
  cfg.device.stuck_fraction = 0.0;
  AnalogMatrix m(4, 4, cfg);
  const Matrix ref = zero_shift_calibrate(m, 800);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(ref(r, c), symmetry_point(m.device(r, c)), 0.05f);
    }
  }
}

TEST(AnalogLinear, TrainsBlobsWithIdealDevice) {
  Rng rng(13);
  nn::MlpConfig mlp_cfg;
  mlp_cfg.dims = {4, 16, 3};
  AnalogMatrixConfig cfg = ideal_array_config();
  cfg.read_noise_std = 0.01;
  nn::Mlp net(mlp_cfg, AnalogLinear::factory(cfg, rng));

  Matrix features(60, 4);
  std::vector<std::size_t> labels(60);
  for (std::size_t i = 0; i < 60; ++i) {
    const std::size_t c = i % 3;
    labels[i] = c;
    for (std::size_t d = 0; d < 4; ++d)
      features(i, d) =
          static_cast<float>(rng.normal(0.0, 0.5)) + static_cast<float>(c) * 2.0f;
  }
  auto order = rng.permutation(60);
  for (int e = 0; e < 15; ++e)
    nn::train_epoch(net, features, labels, order, 0.05f);
  EXPECT_GT(net.accuracy(features, labels), 0.85);
}

TEST(MixedPrecision, AccumulatorFlushesWholeSteps) {
  Rng rng(14);
  AnalogMatrixConfig cfg = ideal_array_config();
  MixedPrecisionLinear lin(2, 2, cfg, rng);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c) lin.array().set_state(r, c, 0.0f);
  Vector x{1.0f, 0.0f};
  Vector dy{-1.0f, 0.0f};
  // lr*|dy|*|x| = 0.001 = half a device step: first update accumulates only.
  lin.update(x, dy, 0.001f);
  EXPECT_NEAR(lin.weights()(0, 0), 0.0f, 1e-6f);
  EXPECT_GT(lin.accumulator()(0, 0), 0.0f);
  // Second update crosses the threshold and fires a pulse.
  lin.update(x, dy, 0.001f);
  EXPECT_NEAR(lin.weights()(0, 0), 0.002f, 1e-4f);
}

TEST(MixedPrecision, MatchesExactGradientOverManySteps) {
  Rng rng(15);
  AnalogMatrixConfig cfg = ideal_array_config();
  MixedPrecisionLinear lin(2, 3, cfg, rng);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) lin.array().set_state(r, c, 0.0f);
  Vector x{0.5f, -0.3f, 0.9f};
  Vector dy{0.7f, -0.2f};
  const float lr = 0.01f;
  // 120 steps keeps every target inside the device range [-1, 1].
  for (int i = 0; i < 120; ++i) lin.update(x, dy, lr);
  const Matrix w = lin.weights();
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(w(r, c), -lr * 120 * dy[r] * x[c], 0.02f);
}

TEST(TikiTaka, TransfersHappenAtConfiguredCadence) {
  Rng rng(16);
  TikiTakaConfig cfg;
  cfg.array = ideal_array_config();
  cfg.array.device = rram_device();
  cfg.transfer_every = 3;
  TikiTakaLinear lin(4, 4, cfg, rng);
  Vector x(4, 0.5f), dy(4, 0.1f);
  for (int i = 0; i < 9; ++i) lin.update(x, dy, 0.01f);
  EXPECT_EQ(lin.transfers_done(), 3u);
}

TEST(TikiTaka, WeightsMoveAgainstGradient) {
  Rng rng(17);
  TikiTakaConfig cfg;
  cfg.array = ideal_array_config();
  cfg.array.device = rram_device();
  cfg.array.device.sigma_ctoc = 0.1;
  cfg.transfer_every = 2;
  TikiTakaLinear lin(3, 3, cfg, rng);
  lin.set_weights(Matrix(3, 3, 0.0f));
  Vector x{1.0f, 1.0f, 1.0f};
  Vector dy{1.0f, 1.0f, 1.0f};  // gradient: push all weights down
  for (int i = 0; i < 300; ++i) lin.update(x, dy, 0.02f);
  const Matrix w = lin.weights();
  double mean = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) mean += w.data()[i];
  mean /= w.size();
  EXPECT_LT(mean, -0.01);
}

PcmArrayConfig quiet_pcm() {
  PcmArrayConfig cfg;
  cfg.read_noise_std = 0.0;
  cfg.device.sigma_ctoc = 0.0;
  cfg.device.dtod_dw = 0.0;
  cfg.device.dtod_bounds = 0.0;
  return cfg;
}

TEST(Pcm, ProgramAndReadDifferentialWeights) {
  PcmPairArray arr(3, 3, quiet_pcm());
  Matrix target(3, 3, 0.0f);
  target(0, 0) = 0.5f;
  target(1, 1) = -0.4f;
  arr.program(target);
  const Matrix w = arr.weights_snapshot();
  EXPECT_NEAR(w(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(w(1, 1), -0.4f, 1e-5f);
  EXPECT_NEAR(w(2, 2), 0.0f, 1e-5f);
}

TEST(Pcm, UpdatesSaturateWithoutReset) {
  PcmArrayConfig cfg = quiet_pcm();
  PcmPairArray arr(2, 2, cfg);
  arr.program(Matrix(2, 2, 0.0f));
  Vector x(2, 1.0f);
  Vector d_up(2, -1.0f);   // desired dW > 0
  Vector d_down(2, 1.0f);  // desired dW < 0
  // Alternate signs: an ideal bidirectional device would stay near zero,
  // but PCM pushes BOTH conductances up until they saturate.
  for (int i = 0; i < 2000; ++i) {
    arr.pulsed_update(x, d_up, 0.01f);
    arr.pulsed_update(x, d_down, 0.01f);
  }
  EXPECT_GT(arr.saturation_fraction(), 0.9);
}

TEST(Pcm, ResetPreservesWeightsAndRestoresHeadroom) {
  PcmArrayConfig cfg = quiet_pcm();
  PcmPairArray arr(2, 2, cfg);
  arr.program(Matrix(2, 2, 0.0f));
  Vector x(2, 1.0f), du(2, -1.0f), dd(2, 1.0f);
  for (int i = 0; i < 2000; ++i) {
    arr.pulsed_update(x, du, 0.01f);
    arr.pulsed_update(x, dd, 0.01f);
  }
  const Matrix w_before = arr.weights_snapshot();
  arr.reset_and_reprogram();
  const Matrix w_after = arr.weights_snapshot();
  for (std::size_t i = 0; i < w_before.size(); ++i)
    EXPECT_NEAR(w_after.data()[i], w_before.data()[i], 1e-4f);
  EXPECT_LT(arr.saturation_fraction(), 0.1);
}

TEST(Pcm, DriftShrinksConductanceOverTime) {
  PcmArrayConfig cfg = quiet_pcm();
  cfg.drift_nu = 0.05;
  cfg.drift_nu_dtod = 0.0;
  PcmPairArray arr(2, 2, cfg);
  Matrix target(2, 2, 0.5f);
  arr.program(target);
  arr.advance_time(1e4);
  const Matrix w = arr.weights_snapshot();
  // (1e4)^-0.05 ~ 0.63: substantial signal loss.
  EXPECT_LT(w(0, 0), 0.40f);
  EXPECT_GT(w(0, 0), 0.20f);
}

TEST(Pcm, ProjectionLinerReducesDrift) {
  PcmArrayConfig no_liner = quiet_pcm();
  no_liner.drift_nu = 0.05;
  no_liner.drift_nu_dtod = 0.0;
  PcmArrayConfig liner = no_liner;
  liner.liner_factor = 0.1;

  PcmPairArray a(2, 2, no_liner), b(2, 2, liner);
  const Matrix target(2, 2, 0.5f);
  a.program(target);
  b.program(target);
  a.advance_time(1e4);
  b.advance_time(1e4);
  EXPECT_GT(b.weights_snapshot()(0, 0), a.weights_snapshot()(0, 0));
  EXPECT_NEAR(b.weights_snapshot()(0, 0), 0.5f, 0.05f);
}

TEST(Pcm, CompensationScaleTracksDrift) {
  Rng rng(18);
  PcmLinear::Config cfg;
  cfg.array = quiet_pcm();
  cfg.array.drift_nu = 0.05;
  cfg.array.drift_nu_dtod = 0.0;
  cfg.drift_compensation = true;
  PcmLinear lin(3, 3, cfg, rng);
  EXPECT_NEAR(lin.compensation_scale(), 1.0, 0.05);
  lin.array().advance_time(1e4);
  const double s = lin.compensation_scale();
  EXPECT_GT(s, 1.3);  // must scale up to undo ~0.63x decay
  EXPECT_LT(s, 2.2);
}

}  // namespace
}  // namespace enw::analog
