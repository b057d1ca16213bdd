#include "nn/mlp.h"

#include "core/check.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace enw::nn {

Mlp::Mlp(const MlpConfig& config, const LinearOpsFactory& factory) {
  ENW_CHECK_MSG(config.dims.size() >= 2, "MLP needs at least input and output dims");
  for (std::size_t i = 0; i + 1 < config.dims.size(); ++i) {
    const bool last = (i + 2 == config.dims.size());
    const Activation act = last ? config.output_activation : config.hidden_activation;
    layers_.emplace_back(factory(config.dims[i + 1], config.dims[i]), act);
  }
}

Mlp::Mlp(std::vector<DenseLayer> layers) : layers_(std::move(layers)) {
  ENW_CHECK_MSG(!layers_.empty(), "MLP needs at least one layer");
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    ENW_CHECK_MSG(layers_[i].out_dim() == layers_[i + 1].in_dim(),
                  "layer dimension chain mismatch");
  }
}

Vector Mlp::forward(std::span<const float> x) {
  Vector h(x.begin(), x.end());
  for (auto& layer : layers_) h = layer.forward(h);
  return h;
}

float Mlp::train_step(std::span<const float> x, std::size_t label, float lr) {
  const Vector logits = forward(x);
  Vector grad(logits.size(), 0.0f);
  const float loss = softmax_cross_entropy(logits, label, grad);
  Vector g = grad;
  for (std::size_t i = layers_.size(); i > 0; --i) g = layers_[i - 1].backward(g, lr);
  return loss;
}

float Mlp::train_step_mse(std::span<const float> x, std::span<const float> target,
                          float lr) {
  const Vector out = forward(x);
  Vector grad(out.size(), 0.0f);
  const float loss = mse(out, target, grad);
  Vector g = grad;
  for (std::size_t i = layers_.size(); i > 0; --i) g = layers_[i - 1].backward(g, lr);
  return loss;
}

std::size_t Mlp::predict(std::span<const float> x) const {
  Vector h(x.begin(), x.end());
  for (const auto& layer : layers_) h = layer.infer(h);
  return argmax(h);
}

// The first layer reads the caller's batch in place; both constructors
// guarantee at least one layer.
Matrix Mlp::forward_batch(const Matrix& x) {
  Matrix h = layers_.front().forward_batch(x);
  for (std::size_t i = 1; i < layers_.size(); ++i) h = layers_[i].forward_batch(h);
  return h;
}

Matrix Mlp::infer_batch(const Matrix& x) const {
  Matrix h = layers_.front().infer_batch(x);
  for (std::size_t i = 1; i < layers_.size(); ++i) h = layers_[i].infer_batch(h);
  return h;
}

std::vector<std::size_t> Mlp::predict_batch(const Matrix& x) const {
  const Matrix logits = infer_batch(x);
  std::vector<std::size_t> preds(x.rows());
  for (std::size_t s = 0; s < logits.rows(); ++s) preds[s] = argmax(logits.row(s));
  return preds;
}

float Mlp::train_batch(const Matrix& x, std::span<const std::size_t> labels,
                       float lr) {
  ENW_CHECK(x.rows() == labels.size());
  ENW_CHECK_MSG(!labels.empty(), "train_batch on an empty batch");
  const Matrix logits = forward_batch(x);
  Matrix grad(logits.rows(), logits.cols());
  const float inv_b = 1.0f / static_cast<float>(x.rows());
  double total = 0.0;
  for (std::size_t s = 0; s < logits.rows(); ++s) {
    auto grow = grad.row(s);
    total += softmax_cross_entropy(logits.row(s), labels[s], grow);
    // Mean-gradient scaling: the accumulated update applies sum_s grad_s / B.
    for (float& g : grow) g *= inv_b;
  }
  Matrix g = grad;
  for (std::size_t i = layers_.size(); i > 0; --i) g = layers_[i - 1].backward_batch(g, lr);
  return static_cast<float>(total / static_cast<double>(labels.size()));
}

namespace {

/// Dataset rows [begin, begin + count) as a dense minibatch.
Matrix dataset_chunk(const Matrix& features, std::size_t begin, std::size_t count) {
  Matrix chunk(count, features.cols());
  std::copy(features.data() + begin * features.cols(),
            features.data() + (begin + count) * features.cols(), chunk.data());
  return chunk;
}

/// Chunk size for dataset-wide evaluation sweeps: big enough to amortize the
/// GEMM, small enough to keep per-layer activation batches cache-friendly.
constexpr std::size_t kEvalChunk = 256;

}  // namespace

double Mlp::accuracy(const Matrix& features, std::span<const std::size_t> labels) const {
  ENW_CHECK(features.rows() == labels.size());
  if (labels.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t start = 0; start < features.rows(); start += kEvalChunk) {
    const std::size_t count = std::min(kEvalChunk, features.rows() - start);
    const Matrix logits = infer_batch(dataset_chunk(features, start, count));
    for (std::size_t s = 0; s < count; ++s) {
      if (argmax(logits.row(s)) == labels[start + s]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

double Mlp::mean_loss(const Matrix& features, std::span<const std::size_t> labels) const {
  ENW_CHECK(features.rows() == labels.size());
  if (labels.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t start = 0; start < features.rows(); start += kEvalChunk) {
    const std::size_t count = std::min(kEvalChunk, features.rows() - start);
    const Matrix logits = infer_batch(dataset_chunk(features, start, count));
    for (std::size_t s = 0; s < count; ++s) {
      total += softmax_cross_entropy(logits.row(s), labels[start + s]);
    }
  }
  return total / static_cast<double>(labels.size());
}

double train_epoch(Mlp& net, const Matrix& features,
                   std::span<const std::size_t> labels,
                   std::span<const std::size_t> order, float lr) {
  ENW_CHECK(features.rows() == labels.size());
  double total = 0.0;
  for (std::size_t idx : order) {
    ENW_CHECK(idx < features.rows());
    total += net.train_step(features.row(idx), labels[idx], lr);
  }
  return order.empty() ? 0.0 : total / static_cast<double>(order.size());
}

}  // namespace enw::nn
