// Tests for src/core: RNG determinism, Zipf sampling, fixed point, bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "core/bits.h"
#include "core/check.h"
#include "core/cpu_features.h"
#include "core/fixed_point.h"
#include "core/rng.h"

namespace enw {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(1.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int count = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) count += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(count) / n, 0.3, 0.03);
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(17), 17u);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(13);
  auto p = rng.permutation(50);
  std::sort(p.begin(), p.end());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  auto s = rng.sample_without_replacement(100, 20);
  EXPECT_EQ(s.size(), 20u);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::adjacent_find(s.begin(), s.end()), s.end());
  for (auto v : s) EXPECT_LT(v, 100u);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(19);
  auto s = rng.sample_without_replacement(10, 10);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.fork();
  // Child stream should not replicate the parent's continuation.
  Rng b(21);
  b.fork();
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());  // parents stay in sync
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (child.uniform() == a.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Zipf, RanksWithinDomain) {
  Rng rng(23);
  ZipfSampler z(1000, 1.1);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(z.sample(rng), 1000u);
}

TEST(Zipf, SkewFavorsLowRanks) {
  Rng rng(29);
  ZipfSampler z(10000, 1.05);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (z.sample(rng) < 100) ++head;  // top 1% of items
  // With s≈1.05 the head should absorb a large fraction of traffic.
  EXPECT_GT(static_cast<double>(head) / n, 0.35);
}

TEST(Zipf, ZeroExponentIsUniform) {
  Rng rng(31);
  ZipfSampler z(100, 0.0);
  std::map<std::size_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[z.sample(rng)]++;
  // Every bucket near n/100 = 500.
  for (const auto& [k, c] : counts) {
    (void)k;
    EXPECT_NEAR(c, 500, 150);
  }
}

TEST(Zipf, MonotoneRankFrequency) {
  Rng rng(37);
  ZipfSampler z(50, 1.2);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 100000; ++i) counts[z.sample(rng)]++;
  // Aggregate comparison: first 10 ranks >> last 10 ranks.
  int head = 0, tail = 0;
  for (int i = 0; i < 10; ++i) head += counts[i];
  for (int i = 40; i < 50; ++i) tail += counts[i];
  EXPECT_GT(head, 5 * tail);
}

TEST(Zipf, SingletonDomain) {
  Rng rng(41);
  ZipfSampler z(1, 1.0);
  EXPECT_EQ(z.sample(rng), 0u);
}

TEST(SymmetricQuantizer, RoundTripWithinResolution) {
  SymmetricQuantizer q(8, 2.0);
  for (double x = -2.0; x <= 2.0; x += 0.01) {
    EXPECT_NEAR(q.apply(x), x, 2.0 / 127.0 * 0.51);
  }
}

TEST(SymmetricQuantizer, SaturatesAtClip) {
  SymmetricQuantizer q(4, 1.0);
  EXPECT_DOUBLE_EQ(q.apply(5.0), 1.0);
  EXPECT_DOUBLE_EQ(q.apply(-5.0), -1.0);
}

TEST(SymmetricQuantizer, TwoBitLevels) {
  SymmetricQuantizer q(2, 1.0);
  // 2-bit symmetric: levels {-1, 0, 1}.
  EXPECT_EQ(q.qmax(), 1);
  EXPECT_DOUBLE_EQ(q.apply(0.9), 1.0);
  EXPECT_DOUBLE_EQ(q.apply(0.1), 0.0);
  EXPECT_DOUBLE_EQ(q.apply(-0.9), -1.0);
}

TEST(UnsignedQuantizer, LevelsAndRoundTrip) {
  UnsignedQuantizer q(4, 0.0, 1.0);
  EXPECT_EQ(q.levels(), 16u);
  EXPECT_EQ(q.quantize(0.0), 0u);
  EXPECT_EQ(q.quantize(1.0), 15u);
  EXPECT_EQ(q.quantize(-3.0), 0u);
  EXPECT_EQ(q.quantize(3.0), 15u);
  for (std::uint32_t v = 0; v < 16; ++v) EXPECT_EQ(q.quantize(q.dequantize(v)), v);
}

TEST(BitVector, SetGetAndPopcount) {
  BitVector b(130);
  b.set(0, true);
  b.set(64, true);
  b.set(129, true);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(64));
  EXPECT_TRUE(b.get(129));
  EXPECT_FALSE(b.get(1));
  EXPECT_EQ(b.popcount(), 3u);
  b.set(64, false);
  EXPECT_EQ(b.popcount(), 2u);
}

TEST(BitVector, HammingDistance) {
  BitVector a(70), b(70);
  a.set(3, true);
  a.set(69, true);
  b.set(3, true);
  b.set(17, true);
  EXPECT_EQ(a.hamming(b), 2u);
  EXPECT_EQ(a.hamming(a), 0u);
}

TEST(BitVector, HammingRequiresEqualLength) {
  BitVector a(10), b(11);
  EXPECT_THROW(a.hamming(b), std::invalid_argument);
}

TEST(GrayCode, RoundTrip) {
  for (std::uint32_t x = 0; x < 4096; ++x) EXPECT_EQ(from_gray(to_gray(x)), x);
}

TEST(GrayCode, AdjacentCodesDifferInOneBit) {
  for (std::uint32_t x = 0; x < 4095; ++x) {
    const std::uint32_t d = to_gray(x) ^ to_gray(x + 1);
    EXPECT_EQ(std::popcount(d), 1);
  }
}

TEST(Check, ThrowsWithMessage) {
  try {
    ENW_CHECK_MSG(false, "context info");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("context info"), std::string::npos);
  }
}

// The tree's one contraction rule (-ffp-contract=off, a usage requirement of
// enw_core) rounds every a*b + c as written, in test code and library code
// alike. With a = b = 1+2^-12 the exact product 1+2^-11+2^-24 is a tie that
// rounds to even, 1+2^-11, so adding c = -(1+2^-11) gives 0; a fused
// multiply-add keeps the 2^-24. The operands are volatile so the compiler cannot fold the sum. On a
// target without FMA nothing can fuse and both tests pass under any flags.
constexpr float kCanaryA = 1.0f + 0x1p-12f;
constexpr float kCanaryC = -(1.0f + 0x1p-11f);

TEST(FpContraction, TestCodeRoundsMulAddAsWritten) {
  volatile float a = kCanaryA, b = kCanaryA, c = kCanaryC;
  const float r = a * b + c;
  EXPECT_EQ(r, 0.0f);
}

TEST(FpContraction, LibraryRoundsMulAddAsWritten) {
  volatile float a = kCanaryA, b = kCanaryA, c = kCanaryC;
  EXPECT_EQ(core::mul_add_as_written(a, b, c), 0.0f);
}

}  // namespace
}  // namespace enw
