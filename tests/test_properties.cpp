// Parameterized property sweeps over the library's invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "analog/analog_matrix.h"
#include "analog/device.h"
#include "core/rng.h"
#include "nn/fp8.h"
#include "perf/lru_cache.h"
#include "tensor/ops.h"

namespace enw {
namespace nn {
// gtest_discover_tests names each parameterized case after its printed
// parameter, so the Fp8FormatTest ctest names read `.../e4m3`.
static void PrintTo(const Fp8Format& fmt, std::ostream* os) {
  *os << 'e' << fmt.exponent_bits << 'm' << fmt.mantissa_bits;
}
}  // namespace nn

namespace {

// ---------------------------------------------------------------- devices

struct PresetCase {
  const char* name;
  analog::DevicePreset preset;
};

// Printed as its preset name, so the ctest names read `.../rram`; the default
// byte dump of the struct holds a pointer and changes with every process.
void PrintTo(const PresetCase& c, std::ostream* os) { *os << c.name; }

class DevicePresetTest : public ::testing::TestWithParam<PresetCase> {};

TEST_P(DevicePresetTest, PulsesRespectBounds) {
  Rng rng(1);
  const auto d = analog::sample_device(GetParam().preset, rng);
  float w = 0.0f;
  for (int i = 0; i < 5000; ++i) {
    w = analog::apply_pulse(d, w, rng.bernoulli(0.5), GetParam().preset.sigma_ctoc,
                            rng);
    ASSERT_GE(w, d.w_min - 1e-5f);
    ASSERT_LE(w, d.w_max + 1e-5f);
  }
}

TEST_P(DevicePresetTest, PotentiationNeverDecreasesOnAverage) {
  Rng rng(2);
  const auto d = analog::sample_device(GetParam().preset, rng);
  // From the bottom of the range, a burst of up pulses must raise the state.
  float w = d.w_min;
  for (int i = 0; i < 200; ++i) {
    w = analog::apply_pulse(d, w, true, GetParam().preset.sigma_ctoc, rng);
  }
  if (d.dw_up > 0.0f) {
    EXPECT_GT(w, d.w_min + 0.01f);
  }
}

TEST_P(DevicePresetTest, ArrayUpdateFollowsGradientSign) {
  analog::AnalogMatrixConfig cfg;
  cfg.device = GetParam().preset;
  cfg.seed = 33;
  analog::AnalogMatrix m(4, 4, cfg);
  // Start all devices mid-range.
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      m.set_state(r, c, 0.5f * (m.device(r, c).w_min + m.device(r, c).w_max));
  const Matrix before = m.weights_snapshot();
  Vector x(4, 1.0f), d(4, -1.0f);  // dW = +lr * 1 everywhere
  for (int i = 0; i < 50; ++i) m.pulsed_update(x, d, 0.02f);
  const Matrix after = m.weights_snapshot();
  double mean = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i)
    mean += after.data()[i] - before.data()[i];
  EXPECT_GT(mean / after.size(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, DevicePresetTest,
    ::testing::Values(PresetCase{"ideal", analog::ideal_device()},
                      PresetCase{"rram", analog::rram_device()},
                      PresetCase{"ecram", analog::ecram_device()},
                      PresetCase{"fefet", analog::fefet_device()},
                      PresetCase{"pcm", analog::pcm_single_device()}));

// ------------------------------------------------------------- ADC sweep

class AdcBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(AdcBitsTest, ReadErrorShrinksWithResolution) {
  const int bits = GetParam();
  analog::AnalogMatrixConfig cfg;
  cfg.device = analog::ideal_device();
  cfg.adc_bits = bits;
  cfg.adc_range = 8.0;
  analog::AnalogMatrix m(8, 8, cfg);
  Rng rng(4);
  m.program(Matrix::uniform(8, 8, -0.5f, 0.5f, rng));
  Vector x(8);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  Vector y(8, 0.0f);
  m.forward(x, y);
  const Vector ref = matvec(m.weights_snapshot(), x);
  double err = 0.0;
  for (std::size_t i = 0; i < 8; ++i) err += std::abs(y[i] - ref[i]);
  // Quantization grid of the ADC bound at this resolution.
  const double grid = 8.0 / ((1 << (bits - 1)) - 1);
  EXPECT_LE(err / 8.0, grid * 1.2 + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, AdcBitsTest, ::testing::Values(4, 6, 8, 10));

// ------------------------------------------------------------- fp8 sweep

class Fp8FormatTest : public ::testing::TestWithParam<nn::Fp8Format> {};

TEST_P(Fp8FormatTest, RoundTripIsIdempotentAndMonotone) {
  const auto fmt = GetParam();
  Rng rng(5);
  float prev_x = -1e9f, prev_r = -1e9f;
  for (int i = 0; i < 500; ++i) {
    const float x = static_cast<float>(rng.normal(0.0, 3.0));
    const float r = nn::round_fp8(x, fmt);
    // Idempotent: representable values round to themselves.
    EXPECT_FLOAT_EQ(nn::round_fp8(r, fmt), r);
  }
  // Monotone over a sorted sweep.
  for (float x = -10.0f; x <= 10.0f; x += 0.037f) {
    const float r = nn::round_fp8(x, fmt);
    EXPECT_GE(x, prev_x);
    EXPECT_GE(r, prev_r - 1e-9f) << "at x=" << x;
    prev_x = x;
    prev_r = r;
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, Fp8FormatTest,
                         ::testing::Values(nn::Fp8Format{4, 3}, nn::Fp8Format{5, 2},
                                           nn::Fp8Format{3, 4}, nn::Fp8Format{5, 10}));

TEST(Fp8Property, MoreMantissaBitsLowerError) {
  Rng rng(6);
  double err3 = 0.0, err5 = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.normal(0.0, 1.0));
    err3 += std::abs(nn::round_fp8(x, {4, 3}) - x);
    err5 += std::abs(nn::round_fp8(x, {4, 5}) - x);
  }
  EXPECT_LT(err5, err3);
}

// ----------------------------------------------------------- cache sweep

class ZipfCacheTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfCacheTest, HitRateGrowsWithSkew) {
  const double s = GetParam();
  perf::LruCache cache(500);
  Rng rng(7);
  ZipfSampler zipf(50000, s);
  for (int i = 0; i < 20000; ++i) cache.access(zipf.sample(rng));
  cache.reset_stats();
  for (int i = 0; i < 20000; ++i) cache.access(zipf.sample(rng));
  // Store results per-skew via static map is overkill; assert a floor that
  // rises with s (uniform traffic on 50k items with a 500-entry cache gives
  // ~1% hits; heavy skew gives most).
  if (s >= 1.2) {
    EXPECT_GT(cache.hit_rate(), 0.6);
  } else if (s >= 0.8) {
    EXPECT_GT(cache.hit_rate(), 0.15);
  } else {
    EXPECT_LT(cache.hit_rate(), 0.15);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfCacheTest, ::testing::Values(0.0, 0.8, 1.2, 1.5));

// ------------------------------------------------------- softmax property

class SoftmaxBetaTest : public ::testing::TestWithParam<float> {};

TEST_P(SoftmaxBetaTest, SumsToOneAndOrdersByLogit) {
  const float beta = GetParam();
  Rng rng(8);
  Vector logits(16);
  for (auto& v : logits) v = static_cast<float>(rng.normal(0.0, 2.0));
  const Vector p = softmax(logits, beta);
  EXPECT_NEAR(sum(p), 1.0f, 1e-5f);
  const std::size_t top = argmax(logits);
  EXPECT_EQ(argmax(p), top);
  for (float v : p) EXPECT_GE(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Betas, SoftmaxBetaTest,
                         ::testing::Values(0.1f, 1.0f, 5.0f, 50.0f));

}  // namespace
}  // namespace enw
