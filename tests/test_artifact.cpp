// Tests for the versioned model artifact format (src/artifact/).
//
// The central contract: save → load → predict_batch is BITWISE identical to
// the in-memory model, for every model kind, in both load modes (mmap /
// owned) and both materializations (zero-copy view / owning copy). The
// negative half of the contract matters as much: a truncated, forged,
// future-versioned, bit-flipped, or misaligned artifact is rejected with a
// TYPED ArtifactError at open(), before any model state exists.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/model_io.h"
#include "artifact/registry.h"
#include "core/checksum.h"
#include "core/rng.h"
#include "data/click_log.h"
#include "nn/digital_linear.h"
#include "nn/mlp.h"
#include "nn/quant.h"
#include "recsys/dlrm.h"
#include "recsys/wide_and_deep.h"
#include "tensor/matrix.h"
#include "testkit/diff.h"
#include "testkit/generators.h"

namespace enw {
namespace {

using artifact::Artifact;
using artifact::ArtifactError;
using artifact::ArtifactErrorCode;
using artifact::ArtifactWriter;
using artifact::LoadMode;
using artifact::Materialize;

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

/// Unique artifact path in the test working directory, removed on scope
/// exit so reruns never see a stale file.
struct TempArtifact {
  explicit TempArtifact(const std::string& name)
      : path("artifact_test_" + name + ".enw") {
    std::filesystem::remove(path);
  }
  ~TempArtifact() { std::filesystem::remove(path); }
  std::string path;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

ArtifactErrorCode open_error(const std::string& path,
                             LoadMode mode = LoadMode::kMap) {
  try {
    Artifact::open(path, mode);
  } catch (const ArtifactError& e) {
    return e.code();
  }
  ADD_FAILURE() << path << ": open unexpectedly succeeded";
  return ArtifactErrorCode::kIo;
}

nn::Mlp make_mlp(Rng& rng) {
  nn::MlpConfig cfg;
  cfg.dims = {9, 7, 4};
  return nn::Mlp(cfg, nn::DigitalLinear::factory(rng));
}

recsys::DlrmConfig dlrm_config() {
  recsys::DlrmConfig cfg;
  cfg.num_dense = 5;
  cfg.num_tables = 3;
  cfg.rows_per_table = 40;
  cfg.embed_dim = 4;
  cfg.bottom_hidden = {8};
  cfg.top_hidden = {8};
  return cfg;
}

std::vector<data::ClickSample> click_batch(std::size_t n, std::uint64_t seed) {
  data::ClickLogConfig log_cfg;
  log_cfg.num_dense = 5;
  log_cfg.num_tables = 3;
  log_cfg.rows_per_table = 40;
  data::ClickLogGenerator gen(log_cfg);
  Rng rng(seed);
  return gen.batch(n, rng);
}

// ---------------------------------------------------------------------------
// CRC32.
// ---------------------------------------------------------------------------

TEST(Checksum, Crc32MatchesKnownVector) {
  // The canonical CRC-32/ISO-HDLC check value.
  const char* s = "123456789";
  EXPECT_EQ(core::crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(core::crc32(s, 0), 0u);
}

TEST(Checksum, IncrementalUpdateEqualsOneShot) {
  std::vector<std::byte> data(1000);
  Rng rng(3);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.uniform() * 255.0);
  }
  const std::uint32_t whole = core::crc32(std::span<const std::byte>(data));
  std::uint32_t state = core::crc32_init();
  state = core::crc32_update(state, std::span<const std::byte>(data.data(), 137));
  state = core::crc32_update(
      state, std::span<const std::byte>(data.data() + 137, data.size() - 137));
  EXPECT_EQ(core::crc32_final(state), whole);
}

// ---------------------------------------------------------------------------
// Round trips: every model kind, both load modes, both materializations.
// ---------------------------------------------------------------------------

TEST(ArtifactRoundTrip, MlpPredictBatchBitwise) {
  Rng rng(101);
  nn::Mlp model = make_mlp(rng);
  Rng data_rng(102);
  const Matrix x = testkit::random_matrix(data_rng, 12, 9);
  const Matrix want = model.infer_batch(x);

  TempArtifact tmp("mlp");
  artifact::save_mlp(model, tmp.path);
  for (LoadMode mode : {LoadMode::kMap, LoadMode::kOwned}) {
    for (Materialize mat : {Materialize::kView, Materialize::kCopy}) {
      auto loaded = artifact::load_mlp(tmp.path, mode, mat);
      EXPECT_TRUE(bitwise_equal(loaded.model.infer_batch(x), want))
          << "mode=" << static_cast<int>(mode) << " mat=" << static_cast<int>(mat);
      EXPECT_EQ(loaded.model.predict_batch(x), model.predict_batch(x));
    }
  }
}

TEST(ArtifactRoundTrip, QatMlpAndInt8EngineBitwise) {
  Rng rng(111);
  nn::QatConfig cfg;
  cfg.dims = {8, 6, 4};
  nn::QatMlp model(cfg, rng);
  // Train a few steps so PACT alphas move off their initial value — the
  // round trip must carry learned clips, not defaults.
  Rng train_rng(112);
  for (int step = 0; step < 8; ++step) {
    const Matrix x = testkit::random_matrix(train_rng, 1, 8);
    model.train_step(x.row(0), static_cast<std::size_t>(step) % 4, 0.05f);
  }
  Rng data_rng(113);
  const Matrix x = testkit::random_matrix(data_rng, 10, 8);
  const Matrix want = model.infer_batch(x);
  const nn::QatInt8Inference engine(model);
  const Matrix want_int8 = engine.infer_batch(x);

  TempArtifact tmp("qat");
  artifact::save_qat_mlp(model, tmp.path);
  for (LoadMode mode : {LoadMode::kMap, LoadMode::kOwned}) {
    auto loaded = artifact::load_qat_mlp(tmp.path, mode, Materialize::kView);
    EXPECT_TRUE(bitwise_equal(loaded.model.infer_batch(x), want));
    auto loaded_engine = artifact::load_qat_int8(tmp.path, mode);
    EXPECT_TRUE(bitwise_equal(loaded_engine.model.infer_batch(x), want_int8));
  }
}

TEST(ArtifactRoundTrip, DlrmPredictBatchBitwise) {
  Rng rng(121);
  recsys::Dlrm model(dlrm_config(), rng);
  const std::vector<data::ClickSample> batch = click_batch(20, 122);
  const std::vector<float> want = model.predict_batch(batch);

  TempArtifact tmp("dlrm");
  artifact::save_dlrm(model, tmp.path);
  for (LoadMode mode : {LoadMode::kMap, LoadMode::kOwned}) {
    for (Materialize mat : {Materialize::kView, Materialize::kCopy}) {
      auto loaded = artifact::load_dlrm(tmp.path, mode, mat);
      EXPECT_FALSE(loaded.model.embedding_cache_enabled());
      EXPECT_TRUE(bitwise_equal(loaded.model.predict_batch(batch), want));
    }
  }
}

TEST(ArtifactRoundTrip, DlrmQuantizedColdTiersBitwise) {
  Rng rng(131);
  recsys::Dlrm model(dlrm_config(), rng);
  model.enable_embedding_cache(/*hot_rows=*/8, /*bits=*/4);
  const std::vector<data::ClickSample> batch = click_batch(25, 132);
  const std::vector<float> want = model.predict_batch(batch);

  TempArtifact tmp("dlrm_cached");
  artifact::save_dlrm(model, tmp.path);
  for (Materialize mat : {Materialize::kView, Materialize::kCopy}) {
    auto loaded = artifact::load_dlrm(tmp.path, LoadMode::kMap, mat);
    ASSERT_TRUE(loaded.model.embedding_cache_enabled());
    for (std::size_t t = 0; t < dlrm_config().num_tables; ++t) {
      const auto& orig = model.embedding_cache(t);
      const auto& got = loaded.model.embedding_cache(t);
      EXPECT_EQ(got.bits(), orig.bits());
      EXPECT_EQ(got.hot_rows(), orig.hot_rows());
      // The cold tier is stored and reloaded byte-identical — never
      // re-quantized (re-quantization could round differently).
      const auto a = orig.cold().codes();
      const auto b = got.cold().codes();
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
      EXPECT_TRUE(bitwise_equal(orig.cold().scales(), got.cold().scales()));
    }
    EXPECT_TRUE(bitwise_equal(loaded.model.predict_batch(batch), want));
  }
}

TEST(ArtifactRoundTrip, WideAndDeepPredictBatchBitwise) {
  Rng rng(141);
  recsys::WideAndDeepConfig cfg;
  cfg.num_dense = 5;
  cfg.num_tables = 3;
  cfg.rows_per_table = 40;
  cfg.embed_dim = 4;
  cfg.deep_hidden = {8};
  recsys::WideAndDeep model(cfg, rng);
  std::vector<data::ClickSample> batch = click_batch(15, 142);
  // Nonzero wide weights so the wide gather round trip is load-bearing.
  for (int i = 0; i < 5; ++i) {
    model.train_step(batch[static_cast<std::size_t>(i)], 0.1f);
  }
  const std::vector<float> want = model.predict_batch(batch);

  TempArtifact tmp("wnd");
  artifact::save_wide_and_deep(model, tmp.path);
  for (LoadMode mode : {LoadMode::kMap, LoadMode::kOwned}) {
    for (Materialize mat : {Materialize::kView, Materialize::kCopy}) {
      auto loaded = artifact::load_wide_and_deep(tmp.path, mode, mat);
      EXPECT_TRUE(bitwise_equal(loaded.model.predict_batch(batch), want));
    }
  }
}

TEST(ArtifactRoundTrip, WideAndDeepQuantizedColdTiersBitwise) {
  Rng rng(151);
  recsys::WideAndDeepConfig cfg;
  cfg.num_dense = 5;
  cfg.num_tables = 3;
  cfg.rows_per_table = 40;
  cfg.embed_dim = 4;
  cfg.deep_hidden = {8};
  recsys::WideAndDeep model(cfg, rng);
  model.enable_embedding_cache(/*hot_rows=*/6, /*bits=*/8);
  const std::vector<data::ClickSample> batch = click_batch(25, 152);
  const std::vector<float> want = model.predict_batch(batch);

  TempArtifact tmp("wnd_cached");
  artifact::save_wide_and_deep(model, tmp.path);
  auto loaded = artifact::load_wide_and_deep(tmp.path, LoadMode::kMap,
                                             Materialize::kView);
  ASSERT_TRUE(loaded.model.embedding_cache_enabled());
  EXPECT_TRUE(bitwise_equal(loaded.model.predict_batch(batch), want));
}

// ---------------------------------------------------------------------------
// Zero-copy semantics.
// ---------------------------------------------------------------------------

TEST(ArtifactZeroCopy, MappedTensorPointersAre64ByteAligned) {
  Rng rng(161);
  recsys::Dlrm model(dlrm_config(), rng);
  TempArtifact tmp("align");
  artifact::save_dlrm(model, tmp.path);
  auto a = Artifact::open(tmp.path, LoadMode::kMap);
  const std::vector<std::string> names = a->tensor_names();
  EXPECT_FALSE(names.empty());
  for (const std::string& name : names) {
    const artifact::TensorView v = a->tensor(name);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data) % artifact::kBlobAlign, 0u)
        << name;
    EXPECT_NE(v.nbytes, 0u) << name;
  }
}

TEST(ArtifactZeroCopy, ViewBorrowsAndRejectsMutation) {
  Rng rng(171);
  nn::Mlp model = make_mlp(rng);
  TempArtifact tmp("borrow");
  artifact::save_mlp(model, tmp.path);

  auto view = artifact::load_mlp(tmp.path, LoadMode::kMap, Materialize::kView);
  Rng data_rng(172);
  const Matrix x = testkit::random_matrix(data_rng, 1, 9);
  // Training mutates borrowed weights in place: the borrow guard must throw,
  // not scribble on the read-only mapping.
  EXPECT_THROW(view.model.train_step(x.row(0), 0, 0.1f), std::invalid_argument);
  // The by-value weights() accessor hands out a COPY, and copying a borrowed
  // view materializes an owning value — so the copy is a fresh mutable
  // matrix carrying the mapped bytes, while the model's own weights stay
  // guarded (the throw above).
  Matrix w0 = view.model.layer(0).ops().weights();
  EXPECT_FALSE(w0.borrowed());
  EXPECT_TRUE(bitwise_equal(w0, model.layer(0).ops().weights()));
  w0(0, 0) += 1.0f;  // mutating the copy must not throw

  auto copy = artifact::load_mlp(tmp.path, LoadMode::kMap, Materialize::kCopy);
  const float loss = copy.model.train_step(x.row(0), 0, 0.1f);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(ArtifactZeroCopy, ViewModelOutlivesPathViaLoadedArtifact) {
  Rng rng(181);
  nn::Mlp model = make_mlp(rng);
  Rng data_rng(182);
  const Matrix x = testkit::random_matrix(data_rng, 4, 9);
  const Matrix want = model.infer_batch(x);
  TempArtifact tmp("lifetime");
  artifact::save_mlp(model, tmp.path);
  auto loaded = artifact::load_mlp(tmp.path, LoadMode::kMap, Materialize::kView);
  // Unlink the file: the mapping (held alive by Loaded::artifact) must keep
  // serving — the POSIX contract a hot-swapping server leans on when a new
  // version replaces the artifact on disk.
  std::filesystem::remove(tmp.path);
  EXPECT_TRUE(bitwise_equal(loaded.model.infer_batch(x), want));
}

// ---------------------------------------------------------------------------
// Negative cases: every corruption is a typed, loud rejection at open().
// ---------------------------------------------------------------------------

struct CorruptionCase {
  const char* name;
  ArtifactErrorCode want;
  void (*mutate)(std::vector<std::uint8_t>& bytes);
};

TEST(ArtifactNegative, CorruptedFilesRejectedWithTypedErrors) {
  Rng rng(191);
  nn::Mlp model = make_mlp(rng);
  TempArtifact tmp("corrupt");
  artifact::save_mlp(model, tmp.path);
  const std::vector<std::uint8_t> good = read_file(tmp.path);
  ASSERT_GT(good.size(), artifact::kHeaderBytes);

  const CorruptionCase cases[] = {
      {"truncated_inside_header", ArtifactErrorCode::kTruncated,
       [](std::vector<std::uint8_t>& b) { b.resize(32); }},
      {"truncated_inside_blobs", ArtifactErrorCode::kTruncated,
       [](std::vector<std::uint8_t>& b) { b.resize(b.size() - 1); }},
      {"wrong_magic", ArtifactErrorCode::kBadMagic,
       [](std::vector<std::uint8_t>& b) { b[0] ^= 0xFF; }},
      {"future_format_version", ArtifactErrorCode::kFutureVersion,
       [](std::vector<std::uint8_t>& b) {
         b[8] = 0xFF;  // format_version u32 at offset 8 (LE)
       }},
      {"blob_bitflip", ArtifactErrorCode::kChecksumMismatch,
       [](std::vector<std::uint8_t>& b) { b.back() ^= 0x01; }},
      {"index_bitflip", ArtifactErrorCode::kChecksumMismatch,
       [](std::vector<std::uint8_t>& b) { b[artifact::kHeaderBytes] ^= 0x01; }},
      {"misaligned_blob_region", ArtifactErrorCode::kMisaligned,
       [](std::vector<std::uint8_t>& b) {
         // Shift blob_offset (u64 LE at 40) off the 64-byte grid, padding
         // the file so blob_offset + blob_bytes stays in-bounds: the
         // alignment check must fire, not a bounds check. (Alignment is a
         // structural check, so it fires before the checksum is verified —
         // no CRC recompute needed here.)
         b.insert(b.end(), 8, 0);
         b[40] += 8;
       }},
  };
  for (const CorruptionCase& c : cases) {
    std::vector<std::uint8_t> bad = good;
    c.mutate(bad);
    write_file(tmp.path, bad);
    for (LoadMode mode : {LoadMode::kMap, LoadMode::kOwned}) {
      EXPECT_EQ(open_error(tmp.path, mode), c.want) << c.name;
      // And through the model loader: same typed error, no partial model.
      try {
        artifact::load_mlp(tmp.path, mode);
        ADD_FAILURE() << c.name << ": load_mlp unexpectedly succeeded";
      } catch (const ArtifactError& e) {
        EXPECT_EQ(e.code(), c.want) << c.name;
      }
    }
  }
}

TEST(ArtifactNegative, MisalignedTensorOffsetRejected) {
  // Hand-build a minimal valid artifact, then nudge the tensor record's
  // offset field off the 64-byte grid and re-checksum — isolating the
  // per-tensor alignment check from the whole-file CRC.
  TempArtifact tmp("misaligned_tensor");
  ArtifactWriter w(artifact::kKindMlp);
  const float v[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  w.add_f32("t", v, 2, 2);
  w.write(tmp.path);
  ASSERT_EQ(Artifact::open(tmp.path)->tensor("t").rows, 2u);

  std::vector<std::uint8_t> bytes = read_file(tmp.path);
  // Index record for name "t": u32 name_len @64, name @68, u32 dtype @69,
  // u64 rows @73, u64 cols @81, u64 offset @89, u64 nbytes @97.
  ASSERT_EQ(bytes[64], 1u);  // name_len
  ASSERT_EQ(bytes[68], 't');
  bytes[89] += 4;  // offset now blob_offset + 4: misaligned, still in bounds
  const std::uint32_t crc = core::crc32(bytes.data() + 24, bytes.size() - 24);
  std::memset(bytes.data() + 16, 0, 8);
  std::memcpy(bytes.data() + 16, &crc, sizeof(crc));  // LE host assumed below
  write_file(tmp.path, bytes);
  EXPECT_EQ(open_error(tmp.path), ArtifactErrorCode::kMisaligned);
}

TEST(ArtifactNegative, ShapeProductWrapRejected) {
  // A record claiming (2^62 + 1) x 4 f32 over a 16-byte blob: the byte count
  // rows * cols * 4 wraps mod 2^64 to exactly 16, so only an overflow-checked
  // product tells this apart from a real 1 x 4 tensor.
  TempArtifact tmp("shape_wrap");
  ArtifactWriter w(artifact::kKindMlp);
  const float v[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  w.add_f32("t", v, 1, 4);
  w.write(tmp.path);
  ASSERT_EQ(Artifact::open(tmp.path)->tensor("t").cols, 4u);

  std::vector<std::uint8_t> bytes = read_file(tmp.path);
  // Record layout as in MisalignedTensorOffsetRejected: rows @73, cols @81.
  ASSERT_EQ(bytes[64], 1u);
  ASSERT_EQ(bytes[68], 't');
  const std::uint64_t rows = (std::uint64_t{1} << 62) + 1;
  const std::uint64_t cols = 4;
  std::memcpy(bytes.data() + 73, &rows, sizeof(rows));  // LE host assumed
  std::memcpy(bytes.data() + 81, &cols, sizeof(cols));
  const std::uint32_t crc = core::crc32(bytes.data() + 24, bytes.size() - 24);
  std::memset(bytes.data() + 16, 0, 8);
  std::memcpy(bytes.data() + 16, &crc, sizeof(crc));
  write_file(tmp.path, bytes);
  EXPECT_EQ(open_error(tmp.path), ArtifactErrorCode::kBadIndex);
  EXPECT_EQ(open_error(tmp.path, LoadMode::kOwned), ArtifactErrorCode::kBadIndex);
}

TEST(ArtifactNegative, MetaU64WrapRejected) {
  // "18446744073709551618" is 2^64 + 2; accumulated mod 2^64 it reads as 2,
  // and with two layers beside it this CRC-valid file would load as a
  // 2-layer MLP. A decimal u64 meta value must reject the wrap instead.
  TempArtifact tmp("meta_wrap");
  ArtifactWriter w(artifact::kKindMlp);
  const float wt[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float bias[2] = {0.0f, 0.0f};
  w.add_meta("layers", "18446744073709551618");
  for (const char* prefix : {"layer0", "layer1"}) {
    w.add_f32(std::string(prefix) + ".wt", wt, 2, 2);
    w.add_f32(std::string(prefix) + ".b", bias, 2, 1);
    w.add_meta_u64(std::string(prefix) + ".act", 0);
  }
  w.add_meta("max", "18446744073709551615");   // 2^64 - 1: the largest u64
  w.add_meta("over", "18446744073709551616");  // 2^64: the first wrap
  w.write(tmp.path);

  const auto a = Artifact::open(tmp.path);
  EXPECT_EQ(a->meta_u64("max"), UINT64_MAX);
  for (const char* key : {"over", "layers"}) {
    try {
      (void)a->meta_u64(key);
      ADD_FAILURE() << "meta '" << key << "' parsed past 2^64 - 1";
    } catch (const ArtifactError& e) {
      EXPECT_EQ(e.code(), ArtifactErrorCode::kBadIndex) << key << ": " << e.what();
    }
  }
  for (Materialize mat : {Materialize::kView, Materialize::kCopy}) {
    try {
      (void)artifact::load_mlp(tmp.path, LoadMode::kMap, mat);
      ADD_FAILURE() << "an MLP claiming 2^64 + 2 layers loaded";
    } catch (const ArtifactError& e) {
      EXPECT_EQ(e.code(), ArtifactErrorCode::kBadIndex) << e.what();
    }
  }
}

TEST(ArtifactNegative, DimsWrapRejected) {
  // "4,18446744073709551620,3" claims a 2^64 + 4 wide hidden layer. Read mod
  // 2^64 it is 4, and with 4-4-3 weights beside it the file would load as a
  // 4-4-3 QatMlp; the dims parser must reject the wrap. The same file with
  // honest dims is the control.
  Rng rng(202);
  nn::QatConfig cfg;
  cfg.dims = {4, 4, 3};
  const nn::QatMlp model(cfg, rng);
  const auto write = [&](const std::string& dims, const std::string& path) {
    ArtifactWriter w(artifact::kKindQatMlp);
    w.add_meta("dims", dims);
    w.add_meta_u64("weight_bits", static_cast<std::uint64_t>(cfg.weight_bits));
    w.add_meta_u64("act_bits", static_cast<std::uint64_t>(cfg.act_bits));
    w.add_meta_u64("high_precision_edges", cfg.high_precision_edges ? 1 : 0);
    const float hyper[2] = {cfg.alpha_lr_scale, cfg.alpha_l2};
    w.add_f32("qat.hyper", hyper, 2, 1);
    for (std::size_t i = 0; i < model.num_layers(); ++i) {
      const std::string prefix = "qat.layer" + std::to_string(i);
      const Matrix& wm = model.weight(i);
      w.add_f32(prefix + ".w", wm.data(), wm.rows(), wm.cols());
      w.add_f32(prefix + ".b", model.bias(i).data(), model.bias(i).size(), 1);
    }
    const float alpha = model.pact_alpha(0);
    w.add_f32("qat.pact_alpha", &alpha, 1, 1);
    w.write(path);
  };
  TempArtifact honest("dims_honest");
  write("4,4,3", honest.path);
  EXPECT_EQ(artifact::load_qat_mlp(honest.path).model.config().dims, cfg.dims);

  TempArtifact tmp("dims_wrap");
  write("4,18446744073709551620,3", tmp.path);
  for (Materialize mat : {Materialize::kView, Materialize::kCopy}) {
    try {
      (void)artifact::load_qat_mlp(tmp.path, LoadMode::kMap, mat);
      ADD_FAILURE() << "a QatMlp with a 2^64 + 4 wide layer loaded";
    } catch (const ArtifactError& e) {
      EXPECT_EQ(e.code(), ArtifactErrorCode::kBadIndex) << e.what();
    }
  }
}

TEST(ArtifactNegative, RowMajorDenseWeightsAreAMissingTensor) {
  // Dense layers are stored input-major as `.wt`; a file holding only the
  // row-major `.w` (the layout before W^T storage) has no reader and fails
  // typed, never loading a transposed model.
  TempArtifact tmp("row_major_dense");
  ArtifactWriter w(artifact::kKindMlp);
  const float weights[6] = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  const float bias[2] = {0.0f, 0.0f};
  w.add_meta_u64("layers", 1);
  w.add_f32("layer0.w", weights, 2, 3);
  w.add_f32("layer0.b", bias, 2, 1);
  w.add_meta_u64("layer0.act", 0);
  w.write(tmp.path);
  for (Materialize mat : {Materialize::kView, Materialize::kCopy}) {
    try {
      (void)artifact::load_mlp(tmp.path, LoadMode::kMap, mat);
      ADD_FAILURE() << "a .w-only MLP artifact loaded";
    } catch (const ArtifactError& e) {
      EXPECT_EQ(e.code(), ArtifactErrorCode::kMissingTensor) << e.what();
    }
  }
}

TEST(ArtifactNegative, WrongModelKindRejected) {
  Rng rng(201);
  nn::Mlp model = make_mlp(rng);
  TempArtifact tmp("kind");
  artifact::save_mlp(model, tmp.path);
  try {
    artifact::load_dlrm(tmp.path);
    ADD_FAILURE() << "load_dlrm accepted an Mlp artifact";
  } catch (const ArtifactError& e) {
    EXPECT_EQ(e.code(), ArtifactErrorCode::kWrongKind);
  }
}

TEST(ArtifactNegative, MissingFileIsIoError) {
  EXPECT_EQ(open_error("artifact_test_does_not_exist.enw"),
            ArtifactErrorCode::kIo);
}

// ---------------------------------------------------------------------------
// ModelRegistry.
// ---------------------------------------------------------------------------

TEST(ModelRegistry, PublishAssignsMonotonicVersions) {
  Rng rng(211);
  nn::Mlp m1 = make_mlp(rng);
  nn::Mlp m2 = make_mlp(rng);
  TempArtifact p1("reg_v1");
  TempArtifact p2("reg_v2");
  artifact::save_mlp(m1, p1.path);
  artifact::save_mlp(m2, p2.path);

  artifact::ModelRegistry reg;
  EXPECT_EQ(reg.publish("mlp", p1.path), 1u);
  EXPECT_EQ(reg.publish("mlp", p2.path), 2u);
  EXPECT_EQ(reg.latest_version("mlp"), 2u);
  EXPECT_EQ(reg.versions("mlp"), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(reg.get("mlp", 1).path, p1.path);
  EXPECT_EQ(reg.get("mlp", 2).model_kind, artifact::kKindMlp);
  EXPECT_NO_THROW(reg.verify("mlp", 1));
  EXPECT_NO_THROW(reg.verify("mlp", 2));
  // Rollback is just "open version N-1 again".
  EXPECT_EQ(reg.open("mlp", 1)->checksum(), reg.get("mlp", 1).checksum);
}

TEST(ModelRegistry, CorruptArtifactCannotBePublished) {
  Rng rng(221);
  nn::Mlp model = make_mlp(rng);
  TempArtifact tmp("reg_corrupt");
  artifact::save_mlp(model, tmp.path);
  std::vector<std::uint8_t> bytes = read_file(tmp.path);
  bytes.back() ^= 0x40;
  write_file(tmp.path, bytes);

  artifact::ModelRegistry reg;
  EXPECT_THROW(reg.publish("mlp", tmp.path), ArtifactError);
  // Nothing was listed: the name stays unknown.
  EXPECT_THROW(reg.latest_version("mlp"), ArtifactError);
  EXPECT_TRUE(reg.versions("mlp").empty());
}

TEST(ModelRegistry, VerifyCatchesFileReplacedAfterPublish) {
  Rng rng(231);
  nn::Mlp m1 = make_mlp(rng);
  nn::Mlp m2 = make_mlp(rng);
  TempArtifact tmp("reg_replaced");
  artifact::save_mlp(m1, tmp.path);

  artifact::ModelRegistry reg;
  ASSERT_EQ(reg.publish("mlp", tmp.path), 1u);
  // Overwrite the path with a different (individually valid) artifact: the
  // registry's recorded checksum no longer matches, so verify/open refuse —
  // a silent swap-under-the-feet cannot masquerade as the published version.
  artifact::save_mlp(m2, tmp.path);
  ASSERT_NE(Artifact::open(tmp.path)->checksum(), reg.get("mlp", 1).checksum);
  try {
    reg.verify("mlp", 1);
    ADD_FAILURE() << "verify accepted a replaced artifact";
  } catch (const ArtifactError& e) {
    EXPECT_EQ(e.code(), ArtifactErrorCode::kChecksumMismatch);
  }
  EXPECT_THROW(reg.open("mlp", 1), ArtifactError);
}

TEST(ModelRegistry, UnknownNameAndVersionThrow) {
  artifact::ModelRegistry reg;
  EXPECT_THROW(reg.latest_version("nope"), ArtifactError);
  EXPECT_THROW(reg.get("nope", 1), ArtifactError);
  EXPECT_THROW(reg.verify("nope", 1), ArtifactError);
  Rng rng(241);
  nn::Mlp model = make_mlp(rng);
  TempArtifact tmp("reg_unknown");
  artifact::save_mlp(model, tmp.path);
  reg.publish("mlp", tmp.path);
  EXPECT_THROW(reg.get("mlp", 2), ArtifactError);
}

}  // namespace
}  // namespace enw
