#include "artifact/model_io.h"

#include <cstring>

#include "nn/digital_linear.h"
#include "tensor/ops.h"

namespace enw::artifact {

namespace {

using nn::Activation;

void check_kind(const Artifact& a, std::uint32_t kind, const char* what) {
  if (a.model_kind() != kind) {
    throw ArtifactError(ArtifactErrorCode::kWrongKind,
                        std::string("artifact is not a ") + what + " (kind " +
                            std::to_string(a.model_kind()) + ")");
  }
}

Matrix load_matrix(const TensorView& t, Materialize mat) {
  const auto s = t.f32();
  if (mat == Materialize::kView) {
    return Matrix::borrow(s.data(), t.rows, t.cols);
  }
  Matrix m(t.rows, t.cols);
  std::memcpy(m.data(), s.data(), s.size() * sizeof(float));
  return m;
}

Vector load_vector(const TensorView& t) {
  const auto s = t.f32();
  return Vector(s.begin(), s.end());
}

Activation act_from_u64(std::uint64_t v) {
  if (v > static_cast<std::uint64_t>(Activation::kTanh)) {
    throw ArtifactError(ArtifactErrorCode::kBadIndex, "unknown activation id");
  }
  return static_cast<Activation>(v);
}

std::string join_dims(std::span<const std::size_t> dims) {
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(dims[i]);
  }
  return out;
}

std::vector<std::size_t> parse_dims(const std::string& s) {
  std::vector<std::size_t> dims;
  std::size_t v = 0;
  bool have = false;
  for (char c : s) {
    if (c == ',') {
      if (!have) {
        throw ArtifactError(ArtifactErrorCode::kBadIndex, "malformed dims meta");
      }
      dims.push_back(v);
      v = 0;
      have = false;
    } else if (c >= '0' && c <= '9') {
      v = v * 10 + static_cast<std::size_t>(c - '0');
      have = true;
    } else {
      throw ArtifactError(ArtifactErrorCode::kBadIndex, "malformed dims meta");
    }
  }
  if (have) dims.push_back(v);
  return dims;
}

// Dense weights travel input-major, as `<prefix>.wt` (rows = in, cols =
// out): the layout DigitalLinear serves from, so a kView load borrows them
// from the mapping as they are.
void save_dense_layer(ArtifactWriter& w, const std::string& prefix,
                      const nn::DenseLayer& layer) {
  const Matrix wt = transpose(layer.ops().weights());
  w.add_f32(prefix + ".wt", wt.data(), wt.rows(), wt.cols());
  w.add_f32(prefix + ".b", layer.bias().data(), layer.bias().size(), 1);
  w.add_meta_u64(prefix + ".act", static_cast<std::uint64_t>(layer.activation()));
}

nn::DenseLayer load_dense_layer(const Artifact& a, const std::string& prefix,
                                Materialize mat) {
  const Activation act = act_from_u64(a.meta_u64(prefix + ".act"));
  nn::DenseLayer layer(
      nn::DigitalLinear::from_transposed(load_matrix(a.tensor(prefix + ".wt"), mat)),
      act);
  layer.set_bias(load_vector(a.tensor(prefix + ".b")));
  return layer;
}

void save_embedding_table(ArtifactWriter& w, const std::string& name,
                          const recsys::EmbeddingTable& table) {
  const Matrix& m = table.data();
  w.add_f32(name, m.data(), m.rows(), m.cols());
}

recsys::EmbeddingTable load_embedding_table(const Artifact& a, const std::string& name,
                                            Materialize mat) {
  return recsys::EmbeddingTable(load_matrix(a.tensor(name), mat));
}

void save_cold_tier(ArtifactWriter& w, const std::string& prefix,
                    const recsys::QuantizedEmbeddingTable& cold) {
  const auto codes = cold.codes();
  const auto scales = cold.scales();
  w.add_s8(prefix + ".codes", codes.data(), codes.size());
  w.add_f32(prefix + ".scales", scales.data(), scales.size(), 1);
}

recsys::QuantizedEmbeddingTable load_cold_tier(const Artifact& a,
                                               const std::string& prefix,
                                               std::size_t rows, std::size_t dim,
                                               int bits, Materialize mat) {
  const auto codes = a.tensor(prefix + ".codes").s8();
  const auto scales = a.tensor(prefix + ".scales").f32();
  if (codes.size() != recsys::QuantizedEmbeddingTable::packed_code_bytes(rows, dim,
                                                                         bits) ||
      scales.size() != rows) {
    throw ArtifactError(ArtifactErrorCode::kBadShape,
                        prefix + ": cold tier size mismatch");
  }
  if (mat == Materialize::kView) {
    return recsys::QuantizedEmbeddingTable::borrow(rows, dim, bits, codes.data(),
                                                   codes.size(), scales.data());
  }
  return recsys::QuantizedEmbeddingTable(
      rows, dim, bits, std::vector<std::int8_t>(codes.begin(), codes.end()),
      std::vector<float>(scales.begin(), scales.end()));
}

/// Shared cache-geometry block: present iff the model was saved with its
/// embedding cache enabled.
template <typename Model>
void save_cache_block(ArtifactWriter& w, const Model& model, std::size_t num_tables) {
  if (!model.embedding_cache_enabled()) return;
  const auto& first = model.embedding_cache(0);
  w.add_meta_u64("cache.bits", static_cast<std::uint64_t>(first.bits()));
  w.add_meta_u64("cache.hot_rows", first.hot_rows());
  for (std::size_t t = 0; t < num_tables; ++t) {
    save_cold_tier(w, "cache" + std::to_string(t), model.embedding_cache(t).cold());
  }
}

template <typename Model>
void load_cache_block(const Artifact& a, Model& model, std::size_t num_tables,
                      std::size_t rows, std::size_t dim, Materialize mat) {
  if (!a.has_meta("cache.bits")) return;
  const int bits = static_cast<int>(a.meta_u64("cache.bits"));
  const std::size_t hot_rows = a.meta_u64("cache.hot_rows");
  std::vector<recsys::QuantizedEmbeddingTable> cold;
  cold.reserve(num_tables);
  for (std::size_t t = 0; t < num_tables; ++t) {
    cold.push_back(load_cold_tier(a, "cache" + std::to_string(t), rows, dim, bits, mat));
  }
  model.enable_embedding_cache(std::move(cold), hot_rows);
}

}  // namespace

// -- Mlp --------------------------------------------------------------------

void save_mlp(const nn::Mlp& model, const std::string& path) {
  ArtifactWriter w(kKindMlp);
  w.add_meta_u64("layers", model.layer_count());
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    save_dense_layer(w, "layer" + std::to_string(i), model.layer(i));
  }
  w.write(path);
}

Loaded<nn::Mlp> load_mlp(std::shared_ptr<const Artifact> a, Materialize mat) {
  check_kind(*a, kKindMlp, "Mlp");
  const std::size_t layers = a->meta_u64("layers");
  std::vector<nn::DenseLayer> built;
  built.reserve(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    built.push_back(load_dense_layer(*a, "layer" + std::to_string(i), mat));
  }
  return {std::move(a), nn::Mlp(std::move(built))};
}

Loaded<nn::Mlp> load_mlp(const std::string& path, LoadMode mode, Materialize mat) {
  return load_mlp(Artifact::open(path, mode), mat);
}

// -- QatMlp -----------------------------------------------------------------

void save_qat_mlp(const nn::QatMlp& model, const std::string& path) {
  ArtifactWriter w(kKindQatMlp);
  const nn::QatConfig& c = model.config();
  w.add_meta("dims", join_dims(c.dims));
  w.add_meta_u64("weight_bits", static_cast<std::uint64_t>(c.weight_bits));
  w.add_meta_u64("act_bits", static_cast<std::uint64_t>(c.act_bits));
  w.add_meta_u64("high_precision_edges", c.high_precision_edges ? 1 : 0);
  // fp32 hyperparameters travel as a tensor — meta is strings, and a float
  // that round-trips through text is not guaranteed bitwise.
  const float hyper[2] = {c.alpha_lr_scale, c.alpha_l2};
  w.add_f32("qat.hyper", hyper, 2, 1);
  const std::size_t L = model.num_layers();
  for (std::size_t i = 0; i < L; ++i) {
    const Matrix& wm = model.weight(i);
    const std::string prefix = "qat.layer" + std::to_string(i);
    w.add_f32(prefix + ".w", wm.data(), wm.rows(), wm.cols());
    w.add_f32(prefix + ".b", model.bias(i).data(), model.bias(i).size(), 1);
  }
  if (L > 1) {
    std::vector<float> alphas(L - 1);
    for (std::size_t i = 0; i + 1 < L; ++i) alphas[i] = model.pact_alpha(i);
    w.add_f32("qat.pact_alpha", alphas.data(), alphas.size(), 1);
  }
  w.write(path);
}

Loaded<nn::QatMlp> load_qat_mlp(std::shared_ptr<const Artifact> a, Materialize mat) {
  check_kind(*a, kKindQatMlp, "QatMlp");
  nn::QatConfig c;
  c.dims = parse_dims(a->meta("dims"));
  c.weight_bits = static_cast<int>(a->meta_u64("weight_bits"));
  c.act_bits = static_cast<int>(a->meta_u64("act_bits"));
  c.high_precision_edges = a->meta_u64("high_precision_edges") != 0;
  const auto hyper = a->tensor("qat.hyper").f32();
  if (hyper.size() != 2) {
    throw ArtifactError(ArtifactErrorCode::kBadShape, "qat.hyper must hold 2 floats");
  }
  c.alpha_lr_scale = hyper[0];
  c.alpha_l2 = hyper[1];
  if (c.dims.size() < 2) {
    throw ArtifactError(ArtifactErrorCode::kBadIndex, "QatMlp dims meta too short");
  }
  const std::size_t L = c.dims.size() - 1;
  std::vector<Matrix> weights;
  std::vector<Vector> biases;
  weights.reserve(L);
  biases.reserve(L);
  for (std::size_t i = 0; i < L; ++i) {
    const std::string prefix = "qat.layer" + std::to_string(i);
    weights.push_back(load_matrix(a->tensor(prefix + ".w"), mat));
    biases.push_back(load_vector(a->tensor(prefix + ".b")));
  }
  std::vector<float> alphas;
  if (L > 1) {
    const auto av = a->tensor("qat.pact_alpha").f32();
    alphas.assign(av.begin(), av.end());
  }
  return {std::move(a),
          nn::QatMlp(c, std::move(weights), std::move(biases), alphas)};
}

Loaded<nn::QatMlp> load_qat_mlp(const std::string& path, LoadMode mode,
                                Materialize mat) {
  return load_qat_mlp(Artifact::open(path, mode), mat);
}

Loaded<nn::QatInt8Inference> load_qat_int8(const std::string& path, LoadMode mode) {
  // The int8 engine copies everything out of the QatMlp at construction
  // (codes, biases, PACT params), so view-loading the intermediate QatMlp is
  // free and the returned engine does not depend on its weights again.
  Loaded<nn::QatMlp> qat = load_qat_mlp(path, mode, Materialize::kView);
  return {std::move(qat.artifact), nn::QatInt8Inference(qat.model)};
}

// -- Dlrm -------------------------------------------------------------------

void save_dlrm(const recsys::Dlrm& model, const std::string& path) {
  ArtifactWriter w(kKindDlrm);
  const recsys::DlrmConfig& c = model.config();
  w.add_meta_u64("num_dense", c.num_dense);
  w.add_meta_u64("num_tables", c.num_tables);
  w.add_meta_u64("rows_per_table", c.rows_per_table);
  w.add_meta_u64("embed_dim", c.embed_dim);
  w.add_meta("bottom_hidden", join_dims(c.bottom_hidden));
  w.add_meta("top_hidden", join_dims(c.top_hidden));
  w.add_meta_u64("bottom.layers", model.bottom().size());
  w.add_meta_u64("top.layers", model.top().size());
  for (std::size_t i = 0; i < model.bottom().size(); ++i) {
    save_dense_layer(w, "bottom" + std::to_string(i), model.bottom()[i]);
  }
  for (std::size_t i = 0; i < model.top().size(); ++i) {
    save_dense_layer(w, "top" + std::to_string(i), model.top()[i]);
  }
  for (std::size_t t = 0; t < model.tables().size(); ++t) {
    save_embedding_table(w, "table" + std::to_string(t), model.tables()[t]);
  }
  save_cache_block(w, model, c.num_tables);
  w.write(path);
}

Loaded<recsys::Dlrm> load_dlrm(std::shared_ptr<const Artifact> a, Materialize mat) {
  check_kind(*a, kKindDlrm, "Dlrm");
  recsys::DlrmConfig c;
  c.num_dense = a->meta_u64("num_dense");
  c.num_tables = a->meta_u64("num_tables");
  c.rows_per_table = a->meta_u64("rows_per_table");
  c.embed_dim = a->meta_u64("embed_dim");
  c.bottom_hidden = parse_dims(a->meta("bottom_hidden"));
  c.top_hidden = parse_dims(a->meta("top_hidden"));
  std::vector<nn::DenseLayer> bottom;
  std::vector<nn::DenseLayer> top;
  const std::size_t nb = a->meta_u64("bottom.layers");
  const std::size_t nt = a->meta_u64("top.layers");
  bottom.reserve(nb);
  top.reserve(nt);
  for (std::size_t i = 0; i < nb; ++i) {
    bottom.push_back(load_dense_layer(*a, "bottom" + std::to_string(i), mat));
  }
  for (std::size_t i = 0; i < nt; ++i) {
    top.push_back(load_dense_layer(*a, "top" + std::to_string(i), mat));
  }
  std::vector<recsys::EmbeddingTable> tables;
  tables.reserve(c.num_tables);
  for (std::size_t t = 0; t < c.num_tables; ++t) {
    tables.push_back(load_embedding_table(*a, "table" + std::to_string(t), mat));
  }
  recsys::Dlrm model(c, std::move(bottom), std::move(top), std::move(tables));
  load_cache_block(*a, model, c.num_tables, c.rows_per_table, c.embed_dim, mat);
  return {std::move(a), std::move(model)};
}

Loaded<recsys::Dlrm> load_dlrm(const std::string& path, LoadMode mode,
                               Materialize mat) {
  return load_dlrm(Artifact::open(path, mode), mat);
}

// -- WideAndDeep ------------------------------------------------------------

void save_wide_and_deep(const recsys::WideAndDeep& model, const std::string& path) {
  ArtifactWriter w(kKindWideAndDeep);
  const recsys::WideAndDeepConfig& c = model.config();
  w.add_meta_u64("num_dense", c.num_dense);
  w.add_meta_u64("num_tables", c.num_tables);
  w.add_meta_u64("rows_per_table", c.rows_per_table);
  w.add_meta_u64("embed_dim", c.embed_dim);
  w.add_meta("deep_hidden", join_dims(c.deep_hidden));
  w.add_meta_u64("deep.layers", model.deep().size());
  for (std::size_t t = 0; t < c.num_tables; ++t) {
    const Vector& wt = model.wide()[t];
    w.add_f32("wide" + std::to_string(t), wt.data(), wt.size(), 1);
  }
  w.add_f32("wide.dense", model.wide_dense().data(), model.wide_dense().size(), 1);
  const float bias = model.wide_bias();
  w.add_f32("wide.bias", &bias, 1, 1);
  for (std::size_t t = 0; t < c.num_tables; ++t) {
    save_embedding_table(w, "table" + std::to_string(t), model.tables()[t]);
  }
  for (std::size_t i = 0; i < model.deep().size(); ++i) {
    save_dense_layer(w, "deep" + std::to_string(i), model.deep()[i]);
  }
  save_cache_block(w, model, c.num_tables);
  w.write(path);
}

Loaded<recsys::WideAndDeep> load_wide_and_deep(std::shared_ptr<const Artifact> a,
                                               Materialize mat) {
  check_kind(*a, kKindWideAndDeep, "WideAndDeep");
  recsys::WideAndDeepConfig c;
  c.num_dense = a->meta_u64("num_dense");
  c.num_tables = a->meta_u64("num_tables");
  c.rows_per_table = a->meta_u64("rows_per_table");
  c.embed_dim = a->meta_u64("embed_dim");
  c.deep_hidden = parse_dims(a->meta("deep_hidden"));
  // The wide part is always owned — see the file comment.
  std::vector<Vector> wide;
  wide.reserve(c.num_tables);
  for (std::size_t t = 0; t < c.num_tables; ++t) {
    wide.push_back(load_vector(a->tensor("wide" + std::to_string(t))));
  }
  Vector wide_dense = load_vector(a->tensor("wide.dense"));
  const auto bias_view = a->tensor("wide.bias").f32();
  if (bias_view.size() != 1) {
    throw ArtifactError(ArtifactErrorCode::kBadShape, "wide.bias must hold 1 float");
  }
  std::vector<recsys::EmbeddingTable> tables;
  tables.reserve(c.num_tables);
  for (std::size_t t = 0; t < c.num_tables; ++t) {
    tables.push_back(load_embedding_table(*a, "table" + std::to_string(t), mat));
  }
  std::vector<nn::DenseLayer> deep;
  const std::size_t nd = a->meta_u64("deep.layers");
  deep.reserve(nd);
  for (std::size_t i = 0; i < nd; ++i) {
    deep.push_back(load_dense_layer(*a, "deep" + std::to_string(i), mat));
  }
  recsys::WideAndDeep model(c, std::move(wide), std::move(wide_dense), bias_view[0],
                            std::move(tables), std::move(deep));
  load_cache_block(*a, model, c.num_tables, c.rows_per_table, c.embed_dim, mat);
  return {std::move(a), std::move(model)};
}

Loaded<recsys::WideAndDeep> load_wide_and_deep(const std::string& path, LoadMode mode,
                                               Materialize mat) {
  return load_wide_and_deep(Artifact::open(path, mode), mat);
}

}  // namespace enw::artifact
