// Tests for src/tensor: matrix ops, kernels, distances, im2col.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/parallel.h"
#include "tensor/distance.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace enw {
namespace {

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal());
  return m;
}

Vector random_vector(std::size_t n, Rng& rng) {
  Vector v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0f, 2.0f}, {3.0f, 4.0f}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_FLOAT_EQ(m(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 3.0f);
  m(1, 1) = 9.0f;
  EXPECT_FLOAT_EQ(m(1, 1), 9.0f);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0f, 2.0f}, {3.0f}}), std::invalid_argument);
}

TEST(Matrix, OutOfRangeAccessThrows) {
  Matrix m(2, 3);
  EXPECT_THROW(m(2, 0), std::invalid_argument);
  EXPECT_THROW(m(0, 3), std::invalid_argument);
}

TEST(Matrix, RowSpanViewsData) {
  Matrix m{{1.0f, 2.0f, 3.0f}, {4.0f, 5.0f, 6.0f}};
  auto r = m.row(1);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_FLOAT_EQ(r[2], 6.0f);
  r[0] = 10.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 10.0f);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a{{1.0f, 2.0f}};
  Matrix b{{3.0f, 5.0f}};
  a += b;
  EXPECT_FLOAT_EQ(a(0, 0), 4.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a(0, 1), 2.0f);
  a *= 2.0f;
  EXPECT_FLOAT_EQ(a(0, 0), 2.0f);
  Matrix c(2, 2);
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(Matrix, FactoriesShapesAndRanges) {
  Rng rng(1);
  const Matrix u = Matrix::uniform(5, 7, -1.0f, 1.0f, rng);
  EXPECT_EQ(u.rows(), 5u);
  EXPECT_EQ(u.cols(), 7u);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 7; ++c) {
      EXPECT_GE(u(r, c), -1.0f);
      EXPECT_LT(u(r, c), 1.0f);
    }
  const Matrix k = Matrix::kaiming(10, 20, 20, rng);
  // Sanity: stddev should be close to sqrt(2/20) ~ 0.316.
  double sq = 0.0;
  for (std::size_t i = 0; i < k.size(); ++i) sq += k.data()[i] * k.data()[i];
  EXPECT_NEAR(std::sqrt(sq / k.size()), std::sqrt(2.0 / 20.0), 0.1);
}

TEST(Ops, MatvecMatchesManual) {
  Matrix a{{1.0f, 2.0f, 3.0f}, {4.0f, 5.0f, 6.0f}};
  Vector x{1.0f, 0.0f, -1.0f};
  const Vector y = matvec(a, x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_FLOAT_EQ(y[0], -2.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
  EXPECT_THROW(matvec(a, Vector{1.0f}), std::invalid_argument);
}

TEST(Ops, MatvecTransposedMatchesExplicitTranspose) {
  Rng rng(2);
  const Matrix a = Matrix::normal(6, 4, 0.0f, 1.0f, rng);
  Vector x(6);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const Vector y1 = matvec_transposed(a, x);
  const Vector y2 = matvec(transpose(a), x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-5f);
}

TEST(Ops, MatmulIdentity) {
  Rng rng(3);
  const Matrix a = Matrix::normal(4, 4, 0.0f, 1.0f, rng);
  Matrix eye(4, 4);
  for (int i = 0; i < 4; ++i) eye(i, i) = 1.0f;
  const Matrix c = matmul(a, eye);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(c(i, j), a(i, j));
}

TEST(Ops, MatmulAssociatesWithMatvec) {
  Rng rng(4);
  const Matrix a = Matrix::normal(3, 5, 0.0f, 1.0f, rng);
  const Matrix b = Matrix::normal(5, 2, 0.0f, 1.0f, rng);
  const Matrix ab = matmul(a, b);
  Vector x{0.5f, -1.5f};
  const Vector y1 = matvec(ab, x);
  const Vector y2 = matvec(a, matvec(b, x));
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-4f);
}

TEST(Ops, Rank1UpdateMatchesOuterProduct) {
  Matrix a(2, 3);
  Vector u{1.0f, 2.0f};
  Vector v{3.0f, 4.0f, 5.0f};
  rank1_update(a, u, v, 0.5f);
  EXPECT_FLOAT_EQ(a(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(a(1, 2), 5.0f);
}

TEST(Ops, VectorHelpers) {
  Vector a{1.0f, -2.0f, 3.0f};
  Vector b{2.0f, 2.0f, 2.0f};
  EXPECT_FLOAT_EQ(dot(a, b), 4.0f);
  EXPECT_FLOAT_EQ(l1_norm(a), 6.0f);
  EXPECT_FLOAT_EQ(l2_norm(b), std::sqrt(12.0f));
  EXPECT_FLOAT_EQ(max_abs(a), 3.0f);
  EXPECT_FLOAT_EQ(sum(a), 2.0f);
  const Vector h = hadamard(a, b);
  EXPECT_FLOAT_EQ(h[1], -4.0f);
  const Vector s = scale(a, -1.0f);
  EXPECT_FLOAT_EQ(s[2], -3.0f);
}

TEST(Ops, SoftmaxNormalizesAndOrders) {
  Vector logits{1.0f, 2.0f, 3.0f};
  const Vector p = softmax(logits);
  EXPECT_NEAR(sum(p), 1.0f, 1e-6f);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Ops, SoftmaxStableForLargeLogits) {
  Vector logits{1000.0f, 1000.0f, 999.0f};
  const Vector p = softmax(logits);
  EXPECT_NEAR(sum(p), 1.0f, 1e-6f);
  EXPECT_TRUE(std::isfinite(p[0]));
}

TEST(Ops, SoftmaxTemperatureSharpens) {
  Vector logits{1.0f, 2.0f};
  const Vector soft = softmax(logits, 1.0f);
  const Vector sharp = softmax(logits, 10.0f);
  EXPECT_GT(sharp[1], soft[1]);
}

TEST(Ops, Argmax) {
  Vector v{0.1f, 0.9f, 0.5f};
  EXPECT_EQ(argmax(v), 1u);
  Vector ties{1.0f, 1.0f};
  EXPECT_EQ(argmax(ties), 0u);  // first wins
  EXPECT_THROW(argmax(Vector{}), std::invalid_argument);
}

TEST(Ops, Im2ColIdentityKernel) {
  // 1x1 kernel, stride 1, no pad: im2col is the identity layout.
  Matrix img(1, 9);
  for (int i = 0; i < 9; ++i) img(0, i) = static_cast<float>(i);
  const Matrix cols = im2col(img, 3, 3, 1, 1, 1, 0);
  EXPECT_EQ(cols.rows(), 1u);
  EXPECT_EQ(cols.cols(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(cols(0, i), static_cast<float>(i));
}

TEST(Ops, Im2ColShapeAndPadding) {
  Matrix img(2, 16);  // 2 channels, 4x4
  const Matrix cols = im2col(img, 4, 4, 3, 3, 2, 1);
  // out = (4+2-3)/2+1 = 2 per dim.
  EXPECT_EQ(cols.rows(), 2u * 9u);
  EXPECT_EQ(cols.cols(), 4u);
}

TEST(Ops, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining adjoint
  // property that conv backward relies on.
  Rng rng(5);
  const std::size_t C = 2, H = 5, W = 5, K = 3, S = 2, P = 1;
  const Matrix x = Matrix::normal(C, H * W, 0.0f, 1.0f, rng);
  const Matrix cx = im2col(x, H, W, K, K, S, P);
  const Matrix y = Matrix::normal(cx.rows(), cx.cols(), 0.0f, 1.0f, rng);
  const Matrix aty = col2im(y, C, H, W, K, K, S, P);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cx.size(); ++i) lhs += cx.data()[i] * y.data()[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x.data()[i] * aty.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// --------------------------------------------------------------------------
// Blocked/parallel kernels vs. naive references: the optimized kernels are
// documented to be *bitwise* identical (same per-element accumulation order,
// and the tree-wide -ffp-contract=off), including on ragged shapes that
// exercise every remainder path of the blocking.
// --------------------------------------------------------------------------

struct KernelShape {
  std::size_t m, k, n;
};

// Pinned to the blocked backend: these tests assert the *blocked* kernels are
// bitwise-equal to the reference oracles, which only holds there (the simd
// backend is bounded-ULP by contract; its differential coverage lives in
// test_backends.cpp). Without the pin, the ambient ENW_BACKEND / cpuid
// auto-detection would decide what "matmul" means.
class KernelEquivalenceTest : public ::testing::TestWithParam<KernelShape> {
 protected:
  void SetUp() override { core::set_backend("blocked"); }
  void TearDown() override { core::reset_backend_selection(); }
};

TEST_P(KernelEquivalenceTest, MatmulMatchesReferenceBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(101);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  EXPECT_TRUE(bitwise_equal(matmul(a, b), matmul_reference(a, b)));
}

TEST_P(KernelEquivalenceTest, MatvecMatchesReferenceBitwise) {
  const auto [m, k, n] = GetParam();
  (void)n;
  Rng rng(102);
  const Matrix a = random_matrix(m, k, rng);
  const Vector x = random_vector(k, rng);
  EXPECT_TRUE(bitwise_equal(matvec(a, x), matvec_reference(a, x)));
}

TEST_P(KernelEquivalenceTest, MatvecTransposedMatchesReferenceBitwise) {
  const auto [m, k, n] = GetParam();
  (void)n;
  Rng rng(103);
  const Matrix a = random_matrix(m, k, rng);
  const Vector x = random_vector(m, rng);
  EXPECT_TRUE(bitwise_equal(matvec_transposed(a, x),
                            matvec_transposed_reference(a, x)));
}

TEST_P(KernelEquivalenceTest, Rank1UpdateMatchesReferenceBitwise) {
  const auto [m, k, n] = GetParam();
  (void)n;
  Rng rng(104);
  Matrix a = random_matrix(m, k, rng);
  Matrix a_ref = a;
  const Vector u = random_vector(m, rng);
  const Vector v = random_vector(k, rng);
  rank1_update(a, u, v, 0.37f);
  rank1_update_reference(a_ref, u, v, 0.37f);
  EXPECT_TRUE(bitwise_equal(a, a_ref));
}

TEST_P(KernelEquivalenceTest, MatmulNtMatchesReferenceBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(106);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  EXPECT_TRUE(bitwise_equal(matmul_nt(a, b), matmul_nt_reference(a, b)));
}

// The batched-forward contract: row i of A B^T is exactly matvec(B, A.row(i)).
TEST_P(KernelEquivalenceTest, MatmulNtRowsMatchMatvec) {
  const auto [m, k, n] = GetParam();
  Rng rng(107);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  const Matrix c = matmul_nt(a, b);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_TRUE(bitwise_equal(c.row(i), matvec(b, a.row(i))));
  }
}

TEST_P(KernelEquivalenceTest, MatmulTnAccMatchesReferenceBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(108);
  const Matrix a = random_matrix(m, k, rng);  // batch = m samples, k outputs
  const Matrix b = random_matrix(m, n, rng);
  Matrix c = random_matrix(k, n, rng);
  Matrix c_ref = c;
  matmul_tn_acc(c, a, b, -0.13f);
  matmul_tn_acc_reference(c_ref, a, b, -0.13f);
  EXPECT_TRUE(bitwise_equal(c, c_ref));
}

// The batched-update contract: one matmul_tn_acc folds the batch exactly like
// the sequential per-sample rank1_update loop — including the zero-skip.
TEST_P(KernelEquivalenceTest, MatmulTnAccMatchesSequentialRank1Updates) {
  const auto [m, k, n] = GetParam();
  Rng rng(109);
  Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(m, n, rng);
  // Sprinkle exact zeros so the skip path actually triggers.
  for (std::size_t i = 0; i < a.size(); i += 3) a.data()[i] = 0.0f;
  Matrix c = random_matrix(k, n, rng);
  Matrix c_seq = c;
  matmul_tn_acc(c, a, b, -0.02f, ZeroSkip::kSkipZeroInputs);
  for (std::size_t s = 0; s < m; ++s) {
    rank1_update(c_seq, a.row(s), b.row(s), -0.02f, ZeroSkip::kSkipZeroInputs);
  }
  EXPECT_TRUE(bitwise_equal(c, c_seq));
}

// Zero-skip is exact for finite operands: skipping a_ik == 0 terms must give
// the same bits as the dense path, and each matmul row must equal the
// per-sample matvec_transposed call with the same skip.
TEST_P(KernelEquivalenceTest, MatmulZeroSkipMatchesDenseAndPerSample) {
  const auto [m, k, n] = GetParam();
  Rng rng(110);
  Matrix a = random_matrix(m, k, rng);
  for (std::size_t i = 0; i < a.size(); i += 2) a.data()[i] = 0.0f;
  const Matrix b = random_matrix(k, n, rng);
  const Matrix skipped = matmul(a, b, ZeroSkip::kSkipZeroInputs);
  EXPECT_TRUE(bitwise_equal(skipped, matmul_reference(a, b)));
  for (std::size_t s = 0; s < m; ++s) {
    EXPECT_TRUE(bitwise_equal(
        skipped.row(s), matvec_transposed(b, a.row(s), ZeroSkip::kSkipZeroInputs)));
  }
}

TEST_P(KernelEquivalenceTest, TransposeMatchesReferenceBitwise) {
  const auto [m, k, n] = GetParam();
  (void)n;
  Rng rng(105);
  const Matrix a = random_matrix(m, k, rng);
  EXPECT_TRUE(bitwise_equal(transpose(a), transpose_reference(a)));
}

INSTANTIATE_TEST_SUITE_P(
    RaggedAndSquare, KernelEquivalenceTest,
    ::testing::Values(KernelShape{1, 1, 1}, KernelShape{3, 129, 17},
                      KernelShape{257, 63, 31}, KernelShape{5, 1, 9},
                      KernelShape{1, 300, 1}, KernelShape{64, 64, 64},
                      KernelShape{130, 70, 129}));

// ENW_THREADS=1 and ENW_THREADS=8 must produce bitwise-identical outputs:
// chunk partitions are a pure function of the shape, and every chunk writes
// a disjoint output slice.
TEST(KernelDeterminism, ThreadCountDoesNotChangeBits) {
  Rng rng(77);
  const Matrix a = random_matrix(130, 67, rng);
  const Matrix b = random_matrix(67, 33, rng);
  const Vector x = random_vector(67, rng);
  const Vector xt = random_vector(130, rng);

  const Matrix bt = random_matrix(33, 67, rng);  // for matmul_nt (n x k)
  const Matrix d = random_matrix(130, 29, rng);  // for matmul_tn_acc (batch x n)

  const std::size_t saved = parallel::thread_count();
  parallel::set_thread_count(1);
  const Matrix mm1 = matmul(a, b);
  const Matrix nt1 = matmul_nt(a, bt);
  const Vector mv1 = matvec(a, x);
  const Vector mt1 = matvec_transposed(a, xt);
  const Matrix tr1 = transpose(a);
  Matrix r1 = a;
  rank1_update(r1, xt, x, -0.01f);
  Matrix acc1(67, 29);
  matmul_tn_acc(acc1, a, d, -0.01f);

  parallel::set_thread_count(8);
  const Matrix mm8 = matmul(a, b);
  const Matrix nt8 = matmul_nt(a, bt);
  const Vector mv8 = matvec(a, x);
  const Vector mt8 = matvec_transposed(a, xt);
  const Matrix tr8 = transpose(a);
  Matrix r8 = a;
  rank1_update(r8, xt, x, -0.01f);
  Matrix acc8(67, 29);
  matmul_tn_acc(acc8, a, d, -0.01f);
  parallel::set_thread_count(saved);

  EXPECT_TRUE(bitwise_equal(mm1, mm8));
  EXPECT_TRUE(bitwise_equal(nt1, nt8));
  EXPECT_TRUE(bitwise_equal(mv1, mv8));
  EXPECT_TRUE(bitwise_equal(mt1, mt8));
  EXPECT_TRUE(bitwise_equal(tr1, tr8));
  EXPECT_TRUE(bitwise_equal(r1, r8));
  EXPECT_TRUE(bitwise_equal(acc1, acc8));
}

// The seed's matvec_transposed skipped rows where x[r] == 0, silently
// swallowing NaN/Inf in those rows. The default path must propagate them;
// the skip is opt-in.
TEST(Ops, MatvecTransposedPropagatesNonFiniteByDefault) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Matrix a{{kNan, kInf}, {1.0f, 2.0f}};
  const Vector x{0.0f, 1.0f};  // zero weight on the non-finite row
  const Vector y = matvec_transposed(a, x);
  EXPECT_TRUE(std::isnan(y[0]));  // 0 * NaN
  EXPECT_TRUE(std::isnan(y[1]));  // 0 * Inf
  const Vector y_skip = matvec_transposed(a, x, ZeroSkip::kSkipZeroInputs);
  EXPECT_FLOAT_EQ(y_skip[0], 1.0f);
  EXPECT_FLOAT_EQ(y_skip[1], 2.0f);
}

TEST(Ops, Rank1UpdatePropagatesNonFiniteByDefault) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Matrix a{{1.0f}, {2.0f}};
  const Vector u{0.0f, 1.0f};
  const Vector v{kInf};
  Matrix exact = a;
  rank1_update(exact, u, v, 1.0f);
  EXPECT_TRUE(std::isnan(exact(0, 0)));  // 1 + 0 * Inf
  Matrix skipped = a;
  rank1_update(skipped, u, v, 1.0f, ZeroSkip::kSkipZeroInputs);
  EXPECT_FLOAT_EQ(skipped(0, 0), 1.0f);
  EXPECT_TRUE(std::isinf(skipped(1, 0)));
}

TEST(Distance, CosineBasics) {
  Vector a{1.0f, 0.0f};
  Vector b{0.0f, 1.0f};
  Vector c{2.0f, 0.0f};
  EXPECT_NEAR(cosine_similarity(a, b), 0.0f, 1e-6f);
  EXPECT_NEAR(cosine_similarity(a, c), 1.0f, 1e-6f);
  EXPECT_NEAR(cosine_similarity(a, Vector{0.0f, 0.0f}), 0.0f, 1e-6f);
}

TEST(Distance, NormsAgreeWithDefinitions) {
  Vector a{1.0f, 2.0f};
  Vector b{4.0f, 6.0f};
  EXPECT_FLOAT_EQ(l1_distance(a, b), 7.0f);
  EXPECT_FLOAT_EQ(l2_distance(a, b), 5.0f);
  EXPECT_FLOAT_EQ(linf_distance(a, b), 4.0f);
}

TEST(Distance, NearestRowPicksTrueNeighbor) {
  Matrix mem{{0.0f, 0.0f}, {10.0f, 10.0f}, {1.0f, 1.2f}};
  Vector q{1.0f, 1.0f};
  EXPECT_EQ(nearest_row(Metric::kL2, mem, q), 2u);
  EXPECT_EQ(nearest_row(Metric::kL1, mem, q), 2u);
  EXPECT_EQ(nearest_row(Metric::kLInf, mem, q), 2u);
  // Cosine ignores magnitude: rows 1 and 2 are both nearly parallel to q,
  // but row 1 is exactly parallel.
  EXPECT_EQ(nearest_row(Metric::kCosineSimilarity, mem, q), 1u);
}

TEST(Distance, MetricNamesUnique) {
  EXPECT_STREQ(metric_name(Metric::kL2), "L2");
  EXPECT_STREQ(metric_name(Metric::kCosineSimilarity), "cosine");
}

// Property sweep: for every metric, nearest_row(mem, mem.row(i)) == i when
// rows are well-separated.
class MetricParamTest : public ::testing::TestWithParam<Metric> {};

TEST_P(MetricParamTest, SelfIsNearest) {
  Rng rng(6);
  Matrix mem(8, 16);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 16; ++c) mem(r, c) = static_cast<float>(rng.normal());
    // Unit-normalize rows so dot and cosine agree and self is the unique
    // maximizer for similarity metrics.
    const float n = l2_norm(mem.row(r));
    for (std::size_t c = 0; c < 16; ++c) mem(r, c) /= n;
  }
  for (std::size_t r = 0; r < 8; ++r) {
    Vector q(mem.row(r).begin(), mem.row(r).end());
    EXPECT_EQ(nearest_row(GetParam(), mem, q), r) << metric_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricParamTest,
                         ::testing::Values(Metric::kCosineSimilarity, Metric::kDot,
                                           Metric::kL1, Metric::kL2, Metric::kLInf));

}  // namespace
}  // namespace enw
