// Kernel-backend registry + per-backend differential tests.
//
// Three claims are enforced here:
//
//   1. Selection protocol: ENW_BACKEND / set_backend resolve exactly the
//      registered names and THROW on anything else — an unknown backend must
//      never silently fall back to a different implementation (a fallback
//      would quietly change every numeric result downstream).
//   2. Every registered backend matches the reference oracle BITWISE over
//      seeded property sweeps, the generators' specials (denormals, signed
//      zeros, ±1e30 overflow fodder) included: every fp32 kernel is the same
//      k-ordered FMA chain per output on every backend.
//   3. Each simd ISA table, called directly, computes that chain: gemm_kn and
//      gemm_nt equal a scalar std::fmaf loop on AVX2 and AVX-512 alike, and
//      the integer kernels (qgemm_nt_s32, s8_axpy) are exact everywhere.

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpu_features.h"
#include "core/rng.h"
#include "nn/quant.h"
#include "recsys/embedding_table.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "tensor/simd_tables.h"
#include "testkit/diff.h"
#include "testkit/generators.h"

namespace enw {
namespace core {
// gtest_discover_tests names each parameterized case after its printed
// parameter; print a backend as its selection name so the ctest names read
// `.../simd` and stay the same across discoveries (a pointer would not).
static void PrintTo(const KernelBackend* backend, std::ostream* os) {
  *os << backend->name();
}
}  // namespace core

namespace {

using testkit::BackendScope;

// RAII environment-variable override (tests must not leak env state into
// later tests in the same binary).
class EnvVarScope {
 public:
  EnvVarScope(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVarScope() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

void expect_bitwise(const Matrix& lhs, const Matrix& rhs,
                    const std::string& what) {
  const testkit::Divergence d = testkit::first_divergence(lhs, rhs);
  EXPECT_TRUE(d.ok()) << what << ": " << d.report();
}

struct SweepShape {
  std::size_t m, k, n;
};

const SweepShape kSweepShapes[] = {
    {1, 1, 1}, {3, 129, 17}, {5, 1, 9}, {2, 300, 7}, {64, 64, 64}, {33, 40, 129},
};

// ---------------------------------------------------------------------------
// Registry / selection protocol.
// ---------------------------------------------------------------------------

TEST(BackendRegistry, ReferenceAndBlockedAlwaysRegisteredAndBitwise) {
  // Two backends: `reference` always, first; `simd` when the CPU has it.
  // `blocked` is gone, an unknown name like any other.
  const auto backends = core::available_backends();
  ASSERT_GE(backends.size(), 1u);
  ASSERT_LE(backends.size(), 2u);
  EXPECT_STREQ(backends[0]->name(), "reference");
  EXPECT_STREQ(backends[0]->isa(), "scalar");
  EXPECT_EQ(backends.size() == 2, core::find_backend("simd") != nullptr);
  EXPECT_EQ(core::find_backend("blocked"), nullptr);
}

TEST(BackendRegistry, SimdRegisteredExactlyWhenCpuSupportsIt) {
  const core::CpuFeatures f = core::cpu_features();
  const core::KernelBackend* simd = core::find_backend("simd");
  if (f.avx2 && f.fma) {
    ASSERT_NE(simd, nullptr);
    if (f.avx512f && f.avx512bw) {
      EXPECT_STREQ(simd->isa(), "avx512");
    } else {
      EXPECT_STREQ(simd->isa(), "avx2");
    }
  } else {
    EXPECT_EQ(simd, nullptr);
  }
}

TEST(BackendRegistry, FindBackendReturnsNullForUnknownName) {
  EXPECT_NE(core::find_backend("reference"), nullptr);
  EXPECT_EQ(core::find_backend("blocked"), nullptr);
  EXPECT_EQ(core::find_backend("nonsense"), nullptr);
  EXPECT_EQ(core::find_backend(""), nullptr);
  EXPECT_EQ(core::find_backend("auto"), nullptr);  // a policy, not a backend
}

TEST(BackendRegistry, SetBackendThrowsOnUnknownNameAndKeepsSelection) {
  BackendScope pin("reference");
  for (const char* bogus : {"nonsense", "blocked"}) {
    EXPECT_THROW(core::set_backend(bogus), std::invalid_argument) << bogus;
    ASSERT_NE(core::current_backend_selection(), nullptr);
    EXPECT_STREQ(core::current_backend_selection()->name(), "reference");
  }
}

// A bogus ENW_BACKEND must throw at first use, not silently fall back to
// some default.
TEST(BackendRegistry, BogusEnvBackendThrowsInsteadOfFallingBack) {
  for (const char* bogus : {"nonsense", "blocked"}) {
    EnvVarScope env("ENW_BACKEND", bogus);
    core::reset_backend_selection();
    Matrix a(2, 3);
    const Vector x(3, 1.0f);
    EXPECT_THROW(matvec(a, x), std::invalid_argument) << bogus;
    // Selection must still be unresolved — a later fix of the env var heals it.
    EXPECT_EQ(core::current_backend_selection(), nullptr);
  }
  core::reset_backend_selection();
}

TEST(BackendRegistry, EnvSelectsNamedBackend) {
  {
    EnvVarScope env("ENW_BACKEND", "reference");
    core::reset_backend_selection();
    EXPECT_STREQ(core::backend().name(), "reference");
  }
  core::reset_backend_selection();
}

TEST(BackendRegistry, AutoPrefersSimdWhenAvailable) {
  {
    EnvVarScope env("ENW_BACKEND", "auto");
    core::reset_backend_selection();
    const char* expected =
        core::find_backend("simd") != nullptr ? "simd" : "reference";
    EXPECT_STREQ(core::backend().name(), expected);
  }
  core::reset_backend_selection();
}

TEST(BackendRegistry, BackendScopeRestoresPreviousSelection) {
  const auto backends = core::available_backends();
  const std::string outer = backends.back()->name();  // simd when registered
  core::set_backend(outer);
  {
    BackendScope scope("reference");
    EXPECT_STREQ(core::backend().name(), "reference");
  }
  EXPECT_EQ(core::backend().name(), outer);
  core::reset_backend_selection();
}

// ---------------------------------------------------------------------------
// fp32 differential sweeps: every backend vs the reference oracle, bitwise,
// specials included.
// ---------------------------------------------------------------------------

class BackendSweepTest : public ::testing::TestWithParam<const core::KernelBackend*> {
 protected:
  const core::KernelBackend& ref() { return *core::find_backend("reference"); }
  const core::KernelBackend& bk() { return *GetParam(); }

  Matrix gen(Rng& rng, std::size_t r, std::size_t c, double zero_fraction) {
    testkit::MatrixGenOptions opts;
    opts.zero_fraction = zero_fraction;
    opts.specials = true;
    return testkit::random_matrix(rng, r, c, opts);
  }

  void expect_matches_ref(const Matrix& got, const Matrix& want,
                          const std::string& what) {
    const testkit::Divergence d = testkit::first_divergence(got, want);
    EXPECT_TRUE(d.ok()) << bk().name() << " vs reference, " << what << ": "
                        << d.report();
  }
};

TEST_P(BackendSweepTest, MatvecMatchesReference) {
  Rng rng(101);
  for (const SweepShape& s : kSweepShapes) {
    const Matrix a = gen(rng, s.m, s.k, 0.0);
    const Matrix xm = gen(rng, 1, s.k, 0.0);
    const Vector x(xm.row(0).begin(), xm.row(0).end());
    expect_matches_ref(testkit::as_row(bk().matvec(a, x)),
                       testkit::as_row(ref().matvec(a, x)), "matvec");
  }
}

TEST_P(BackendSweepTest, MatvecTransposedMatchesReference) {
  Rng rng(102);
  for (const SweepShape& s : kSweepShapes) {
    for (ZeroSkip skip : {ZeroSkip::kNone, ZeroSkip::kSkipZeroInputs}) {
      const Matrix a = gen(rng, s.k, s.n, 0.0);
      const Matrix xm = gen(rng, 1, s.k, skip == ZeroSkip::kNone ? 0.0 : 0.4);
      const Vector x(xm.row(0).begin(), xm.row(0).end());
      expect_matches_ref(testkit::as_row(bk().matvec_transposed(a, x, skip)),
                         testkit::as_row(ref().matvec_transposed(a, x, skip)),
                         "matvec_transposed");
    }
  }
}

TEST_P(BackendSweepTest, MatmulMatchesReference) {
  Rng rng(103);
  for (const SweepShape& s : kSweepShapes) {
    for (ZeroSkip skip : {ZeroSkip::kNone, ZeroSkip::kSkipZeroInputs}) {
      const Matrix a = gen(rng, s.m, s.k, skip == ZeroSkip::kNone ? 0.0 : 0.4);
      const Matrix b = gen(rng, s.k, s.n, 0.0);
      expect_matches_ref(bk().matmul(a, b, skip), ref().matmul(a, b, skip),
                         "matmul");
    }
  }
}

TEST_P(BackendSweepTest, MatmulNtMatchesReference) {
  Rng rng(104);
  for (const SweepShape& s : kSweepShapes) {
    const Matrix a = gen(rng, s.m, s.k, 0.0);
    const Matrix b = gen(rng, s.n, s.k, 0.0);
    expect_matches_ref(bk().matmul_nt(a, b), ref().matmul_nt(a, b),
                       "matmul_nt");
  }
}

TEST_P(BackendSweepTest, MatmulTnAccMatchesReference) {
  Rng rng(105);
  for (const SweepShape& s : kSweepShapes) {
    for (ZeroSkip skip : {ZeroSkip::kNone, ZeroSkip::kSkipZeroInputs}) {
      const Matrix a = gen(rng, s.k, s.m, skip == ZeroSkip::kNone ? 0.0 : 0.4);
      const Matrix b = gen(rng, s.k, s.n, 0.0);
      Matrix c_bk = gen(rng, s.m, s.n, 0.0);
      Matrix c_ref = c_bk;
      bk().matmul_tn_acc(c_bk, a, b, 0.5f, skip);
      ref().matmul_tn_acc(c_ref, a, b, 0.5f, skip);
      expect_matches_ref(c_bk, c_ref, "matmul_tn_acc");
    }
  }
}

TEST_P(BackendSweepTest, Rank1UpdateMatchesReference) {
  Rng rng(106);
  for (const SweepShape& s : kSweepShapes) {
    for (ZeroSkip skip : {ZeroSkip::kNone, ZeroSkip::kSkipZeroInputs}) {
      const Matrix um = gen(rng, 1, s.m, skip == ZeroSkip::kNone ? 0.0 : 0.4);
      const Matrix vm = gen(rng, 1, s.n, 0.0);
      const Vector u(um.row(0).begin(), um.row(0).end());
      const Vector v(vm.row(0).begin(), vm.row(0).end());
      Matrix a_bk = gen(rng, s.m, s.n, 0.0);
      Matrix a_ref = a_bk;
      bk().rank1_update(a_bk, u, v, -0.25f, skip);
      ref().rank1_update(a_ref, u, v, -0.25f, skip);
      expect_matches_ref(a_bk, a_ref, "rank1_update");
    }
  }
}

TEST_P(BackendSweepTest, TransposeMatchesReferenceBitwise) {
  Rng rng(107);
  for (const SweepShape& s : kSweepShapes) {
    const Matrix a = gen(rng, s.m, s.n, 0.0);
    // Transpose moves bits without arithmetic: bitwise on EVERY backend.
    expect_bitwise(bk().transpose(a), ref().transpose(a),
                   std::string(bk().name()) + " transpose");
  }
}

// The paired-kernel contract holds within each backend (bitwise): batching
// must never change a result.
TEST_P(BackendSweepTest, PairedKernelContractIsBitwiseWithinBackend) {
  Rng rng(108);
  for (const SweepShape& s : kSweepShapes) {
    const Matrix a = gen(rng, s.m, s.k, 0.2);
    const Matrix b = gen(rng, s.k, s.n, 0.0);
    const Matrix bt = gen(rng, s.n, s.k, 0.0);

    // matmul_nt row i == matvec(bt, a.row i).
    const Matrix c_nt = bk().matmul_nt(a, bt);
    for (std::size_t i = 0; i < s.m; ++i) {
      const Vector x(a.row(i).begin(), a.row(i).end());
      expect_bitwise(testkit::as_row(c_nt.row(i)),
                     testkit::as_row(bk().matvec(bt, x)),
                     std::string(bk().name()) + " matmul_nt row vs matvec");
    }

    // matmul row s == matvec_transposed(b, a.row s) under the same skip.
    for (ZeroSkip skip : {ZeroSkip::kNone, ZeroSkip::kSkipZeroInputs}) {
      const Matrix c = bk().matmul(a, b, skip);
      for (std::size_t i = 0; i < s.m; ++i) {
        const Vector x(a.row(i).begin(), a.row(i).end());
        expect_bitwise(
            testkit::as_row(c.row(i)),
            testkit::as_row(bk().matvec_transposed(b, x, skip)),
            std::string(bk().name()) + " matmul row vs matvec_transposed");
      }
    }

    // matmul_tn_acc == the same update applied as sequential rank1_updates.
    const Matrix g = gen(rng, s.k, s.m, 0.2);
    const Matrix h = gen(rng, s.k, s.n, 0.0);
    Matrix acc = gen(rng, s.m, s.n, 0.0);
    Matrix seq = acc;
    bk().matmul_tn_acc(acc, g, h, -0.5f, ZeroSkip::kSkipZeroInputs);
    for (std::size_t r = 0; r < s.k; ++r) {
      const Vector u(g.row(r).begin(), g.row(r).end());
      const Vector v(h.row(r).begin(), h.row(r).end());
      bk().rank1_update(seq, u, v, -0.5f, ZeroSkip::kSkipZeroInputs);
    }
    expect_bitwise(acc, seq,
                   std::string(bk().name()) + " matmul_tn_acc vs rank1 chain");
  }
}

// ---------------------------------------------------------------------------
// int8 kernels: exact integer arithmetic — bitwise across ALL backends.
// ---------------------------------------------------------------------------

TEST_P(BackendSweepTest, QgemmNtS32IsBitwiseIdenticalToReference) {
  Rng rng(109);
  for (const SweepShape& s : kSweepShapes) {
    const Int8RowMatrix a = quantize_rows_s8(testkit::random_matrix(rng, s.m, s.k));
    const Int8RowMatrix b = quantize_rows_s8(testkit::random_matrix(rng, s.n, s.k));
    std::vector<std::int32_t> c_ref(s.m * s.n), c_bk(s.m * s.n);
    ref().qgemm_nt_s32(a.codes.data(), b.codes.data(), c_ref.data(), s.m, s.n, s.k);
    bk().qgemm_nt_s32(a.codes.data(), b.codes.data(), c_bk.data(), s.m, s.n, s.k);
    EXPECT_EQ(c_ref, c_bk) << bk().name() << " qgemm_nt_s32 diverged at shape "
                           << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_P(BackendSweepTest, S8AxpyIsBitwiseIdenticalToReference) {
  Rng rng(110);
  for (std::size_t n : {1u, 7u, 16u, 33u, 300u}) {
    const Int8RowMatrix codes = quantize_rows_s8(testkit::random_matrix(rng, 1, n));
    Vector dst_ref = testkit::random_vector(rng, n);
    Vector dst_bk = dst_ref;
    ref().s8_axpy(dst_ref.data(), codes.codes.data(), 0.0123f, n);
    bk().s8_axpy(dst_bk.data(), codes.codes.data(), 0.0123f, n);
    expect_bitwise(testkit::as_row(dst_bk), testkit::as_row(dst_ref),
                   std::string(bk().name()) + " s8_axpy");
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, BackendSweepTest,
                         ::testing::ValuesIn(core::available_backends()));

// ---------------------------------------------------------------------------
// Quantized GEMM public API.
// ---------------------------------------------------------------------------

TEST(Qgemm, QuantizeRowsRoundTripsWithinOneStep) {
  Rng rng(111);
  const Matrix m = testkit::random_matrix(rng, 9, 33);
  const Int8RowMatrix q = quantize_rows_s8(m);
  ASSERT_EQ(q.rows, 9u);
  ASSERT_EQ(q.cols, 33u);
  for (std::size_t i = 0; i < q.rows; ++i) {
    for (std::size_t j = 0; j < q.cols; ++j) {
      const float back = q.scales[i] * static_cast<float>(q.codes[i * q.cols + j]);
      EXPECT_NEAR(back, m(i, j), q.scales[i] * 0.5f + 1e-7f);
      EXPECT_GE(q.codes[i * q.cols + j], -127);
      EXPECT_LE(q.codes[i * q.cols + j], 127);
    }
  }
}

TEST(Qgemm, ZeroRowsQuantizeExactly) {
  Matrix m(3, 5);
  m(1, 2) = 2.0f;  // only row 1 is nonzero
  const Int8RowMatrix q = quantize_rows_s8(m);
  EXPECT_EQ(q.scales[0], 0.0f);
  EXPECT_EQ(q.scales[2], 0.0f);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(q.codes[0 * 5 + j], 0);
    EXPECT_EQ(q.codes[2 * 5 + j], 0);
  }
  EXPECT_EQ(q.codes[1 * 5 + 2], 127);
  EXPECT_FLOAT_EQ(q.scales[1] * 127.0f, 2.0f);
}

TEST(Qgemm, DequantizedProductIsBitwiseInvariantAcrossBackends) {
  Rng rng(112);
  const Matrix af = testkit::random_matrix(rng, 12, 70);
  const Matrix bf = testkit::random_matrix(rng, 9, 70);
  const Int8RowMatrix a = quantize_rows_s8(af);
  const Int8RowMatrix b = quantize_rows_s8(bf);
  const Matrix base = testkit::with_backend(
      "reference", [&] { return qgemm_nt(a, b); });
  for (const core::KernelBackend* backend : core::available_backends()) {
    const Matrix got = testkit::with_backend(
        backend->name(), [&] { return qgemm_nt(a, b); });
    expect_bitwise(got, base, std::string(backend->name()) + " qgemm_nt");
  }
}

TEST(Qgemm, ApproximatesFp32MatmulNt) {
  Rng rng(113);
  const Matrix a = testkit::random_matrix(rng, 8, 64);
  const Matrix b = testkit::random_matrix(rng, 6, 64);
  const Matrix exact = matmul_nt_reference(a, b);
  const Matrix quant = qgemm_nt(quantize_rows_s8(a), quantize_rows_s8(b));
  for (std::size_t i = 0; i < exact.size(); ++i) {
    // Worst-case per-element error of symmetric 8-bit rows over k=64.
    EXPECT_NEAR(quant.data()[i], exact.data()[i], 0.35f);
  }
}

// ---------------------------------------------------------------------------
// Quantized embedding pooling through the backend s8_axpy path.
// ---------------------------------------------------------------------------

TEST(QuantizedEmbedding, LookupSumIsBitwiseInvariantAcrossBackends) {
  Rng rng(114);
  recsys::EmbeddingTable table(50, 24, rng);
  const std::vector<std::size_t> indices = {0, 7, 7, 49, 12, 3};
  for (int bits : {2, 4, 8}) {
    recsys::QuantizedEmbeddingTable q(table, bits);
    Vector base(24);
    {
      BackendScope pin("reference");
      q.lookup_sum(indices, base);
    }
    for (const core::KernelBackend* backend : core::available_backends()) {
      BackendScope pin(backend->name());
      Vector got(24);
      q.lookup_sum(indices, got);
      expect_bitwise(testkit::as_row(got), testkit::as_row(base),
                     std::string(backend->name()) + " q.lookup_sum bits=" +
                         std::to_string(bits));
    }
  }
}

TEST(QuantizedEmbedding, BatchLookupMatchesPerSampleBitwise) {
  Rng rng(115);
  recsys::EmbeddingTable table(40, 16, rng);
  const std::vector<std::vector<std::size_t>> lists = {
      {0, 5, 5, 39}, {}, {17}, {3, 2, 1, 0, 12}};
  std::vector<std::span<const std::size_t>> spans(lists.begin(), lists.end());
  for (int bits : {2, 4, 8}) {
    recsys::QuantizedEmbeddingTable q(table, bits);
    Matrix out(lists.size(), 16);
    q.lookup_sum_batch(spans, out);
    for (std::size_t s = 0; s < lists.size(); ++s) {
      Vector expected(16);
      q.lookup_sum(lists[s], expected);
      expect_bitwise(testkit::as_row(out.row(s)), testkit::as_row(expected),
                     "q.lookup_sum_batch row bits=" + std::to_string(bits));
    }
  }
}

TEST(QuantizedEmbedding, OutOfRangeIndexThrowsBeforeAnyAccumulation) {
  Rng rng(116);
  recsys::EmbeddingTable table(10, 8, rng);
  recsys::QuantizedEmbeddingTable q(table, 8);
  const std::vector<std::size_t> bad = {3, 10};
  Vector out(8, 7.0f);
  EXPECT_THROW(q.lookup_sum(bad, out), std::invalid_argument);
  // Up-front validation: out must be untouched (not partially accumulated).
  for (float v : out) EXPECT_FLOAT_EQ(v, 7.0f);
}

// ---------------------------------------------------------------------------
// int8 QAT inference engine.
// ---------------------------------------------------------------------------

TEST(QatInt8, AgreesWithFp32InferenceOnTrainedNet) {
  Rng rng(13);
  nn::QatConfig cfg;
  cfg.dims = {4, 24, 3};
  cfg.weight_bits = 2;
  cfg.act_bits = 2;
  nn::QatMlp net(cfg, rng);
  Matrix features(60, 4);
  std::vector<std::size_t> labels(60);
  for (std::size_t i = 0; i < 60; ++i) {
    const std::size_t c = i % 3;
    labels[i] = c;
    for (std::size_t d = 0; d < 4; ++d)
      features(i, d) =
          static_cast<float>(rng.normal(0.0, 0.6)) + static_cast<float>(c) * 2.0f;
  }
  for (int e = 0; e < 40; ++e)
    for (std::size_t i = 0; i < 60; ++i)
      net.train_step(features.row(i), labels[i], 0.02f);

  const nn::QatInt8Inference engine(net);
  EXPECT_EQ(engine.input_dim(), 4u);
  EXPECT_EQ(engine.output_dim(), 3u);

  // The int8 engine must predict (nearly) the same classes as the fp32
  // simulated-quantization path it deploys...
  const std::vector<std::size_t> fp32_preds = net.predict_batch(features);
  EXPECT_GE(engine.agreement(features, fp32_preds), 0.9);

  // ...and therefore keep the trained accuracy.
  const std::vector<std::size_t> preds = engine.predict_batch(features);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) correct += (preds[i] == labels[i]);
  EXPECT_GT(static_cast<double>(correct) / 60.0, 0.8);
}

TEST(QatInt8, LogitsAreBitwiseInvariantAcrossBackends) {
  Rng rng(117);
  nn::QatConfig cfg;
  cfg.dims = {6, 10, 4};
  nn::QatMlp net(cfg, rng);
  const nn::QatInt8Inference engine(net);
  const Matrix x = testkit::random_matrix(rng, 9, 6);
  const Matrix base = testkit::with_backend(
      "reference", [&] { return engine.infer_batch(x); });
  for (const core::KernelBackend* backend : core::available_backends()) {
    const Matrix got = testkit::with_backend(
        backend->name(), [&] { return engine.infer_batch(x); });
    expect_bitwise(got, base,
                   std::string(backend->name()) + " int8 engine logits");
  }
}

// ---------------------------------------------------------------------------
// gemm_kn on each ISA table: every output element, column tail included, is
// the scalar k-ordered std::fmaf chain. B is an exact-size heap block whose
// last row ends at the end of the allocation, and C is too, so a tail load or
// store that runs past column n is an out-of-bounds access under ASan.
// ---------------------------------------------------------------------------

#if defined(ENW_SIMD_AVX2) || defined(ENW_SIMD_AVX512)

void expect_gemm_kn_is_scalar_chain(const detail::SimdKernelTable& t) {
  constexpr std::size_t kK = 37;
  Rng rng(131);
  for (std::size_t n : {1, 7, 8, 9, 10, 15, 16, 17, 31, 32, 33, 63, 64, 65, 79, 784}) {
    for (std::size_t m : {1, 3, 4, 5}) {
      std::vector<float> a(m * kK), b(kK * n), c0(m * n);
      for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;  // skip targets
      for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (float& v : c0) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (bool accumulate : {false, true}) {
        for (bool skip : {false, true}) {
          std::vector<float> want = c0;
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              float acc = accumulate ? c0[i * n + j] : 0.0f;
              for (std::size_t kx = 0; kx < kK; ++kx) {
                const float av = a[i * kK + kx];
                if (skip && av == 0.0f) continue;
                acc = std::fmaf(av, b[kx * n + j], acc);
              }
              want[i * n + j] = acc;
            }
          }
          std::vector<float> got = c0;
          t.gemm_kn(a.data(), kK, b.data(), n, got.data(), n, m, kK, n, accumulate,
                    skip);
          const testkit::Divergence d = testkit::first_divergence(got, want);
          EXPECT_TRUE(d.ok()) << t.isa << " m=" << m << " n=" << n
                              << " accumulate=" << accumulate << " skip=" << skip
                              << ": " << d.report();
        }
      }
    }
  }
}

// gemm_nt, the packed A·Bᵀ entry behind simd matvec (m = 1) and matmul_nt:
// every output is the same scalar chain, over ragged k (the masked pack
// edge) and ragged n (a partial row group and a partial panel). A, B and C
// are exact-size heap blocks, so a pack load past column k of a row, or past
// row n of B, is an out-of-bounds access under ASan.
void expect_gemm_nt_is_scalar_chain(const detail::SimdKernelTable& t) {
  Rng rng(132);
  for (std::size_t k : {1, 15, 16, 17, 37, 784}) {
    for (std::size_t n : {1, 7, 15, 16, 17, 31, 33, 64, 65, 79}) {
      for (std::size_t m : {1, 3, 4, 5}) {
        std::vector<float> a(m * k), b(n * k);
        for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        std::vector<float> want(m * n);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::size_t kx = 0; kx < k; ++kx)
              acc = std::fmaf(a[i * k + kx], b[j * k + kx], acc);
            want[i * n + j] = acc;
          }
        }
        std::vector<float> got(m * n, std::nanf(""));  // must be overwritten
        t.gemm_nt(a.data(), k, b.data(), k, got.data(), n, m, k, n);
        const testkit::Divergence d = testkit::first_divergence(got, want);
        EXPECT_TRUE(d.ok()) << t.isa << " m=" << m << " n=" << n << " k=" << k
                            << ": " << d.report();
      }
    }
  }
}

#endif

#ifdef ENW_SIMD_AVX2
TEST(SimdGemmKn, Avx2ColumnTailIsTheScalarKOrderedChain) {
  const core::CpuFeatures& f = core::cpu_features();
  if (!(f.avx2 && f.fma)) GTEST_SKIP() << "host lacks avx2+fma";
  expect_gemm_kn_is_scalar_chain(detail::simd_avx2_table());
}
#endif

#ifdef ENW_SIMD_AVX512
TEST(SimdGemmKn, Avx512ColumnTailIsTheScalarKOrderedChain) {
  const core::CpuFeatures& f = core::cpu_features();
  if (!(f.avx512f && f.avx512bw && f.fma)) GTEST_SKIP() << "host lacks avx512f+bw";
  expect_gemm_kn_is_scalar_chain(detail::simd_avx512_table());
}
#endif

#ifdef ENW_SIMD_AVX2
TEST(SimdGemmNt, Avx2PackedPanelIsTheScalarKOrderedChain) {
  const core::CpuFeatures& f = core::cpu_features();
  if (!(f.avx2 && f.fma)) GTEST_SKIP() << "host lacks avx2+fma";
  expect_gemm_nt_is_scalar_chain(detail::simd_avx2_table());
}
#endif

#ifdef ENW_SIMD_AVX512
TEST(SimdGemmNt, Avx512PackedPanelIsTheScalarKOrderedChain) {
  const core::CpuFeatures& f = core::cpu_features();
  if (!(f.avx512f && f.avx512bw && f.fma)) GTEST_SKIP() << "host lacks avx512f+bw";
  expect_gemm_nt_is_scalar_chain(detail::simd_avx512_table());
}
#endif

}  // namespace
}  // namespace enw
