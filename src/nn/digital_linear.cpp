#include "nn/digital_linear.h"

#include "core/check.h"
#include "obs/obs.h"
#include "tensor/ops.h"

namespace enw::nn {

DigitalLinear::DigitalLinear(std::size_t out_dim, std::size_t in_dim, Rng& rng)
    : DigitalLinear(Matrix::kaiming(out_dim, in_dim, in_dim, rng)) {}

DigitalLinear::DigitalLinear(Matrix w) : DigitalLinear(transpose(w), InputMajor{}) {}

DigitalLinear::DigitalLinear(Matrix wt, InputMajor) : wt_(std::move(wt)) {
  ENW_CHECK_MSG(!wt_.empty(), "weights must be non-empty");
}

std::unique_ptr<DigitalLinear> DigitalLinear::from_transposed(Matrix wt) {
  return std::unique_ptr<DigitalLinear>(new DigitalLinear(std::move(wt), InputMajor{}));
}

void DigitalLinear::forward(std::span<const float> x, std::span<float> y) {
  ENW_SPAN("nn.linear.forward");
  ENW_CHECK(x.size() == in_dim() && y.size() == out_dim());
  const Vector out = matvec_transposed(wt_, x);
  std::copy(out.begin(), out.end(), y.begin());
}

void DigitalLinear::backward(std::span<const float> dy, std::span<float> dx) {
  ENW_SPAN("nn.linear.backward");
  ENW_CHECK(dy.size() == out_dim() && dx.size() == in_dim());
  const Vector out = matvec(wt_, dy);
  std::copy(out.begin(), out.end(), dx.begin());
}

void DigitalLinear::update(std::span<const float> x, std::span<const float> dy,
                           float lr) {
  ENW_SPAN("nn.linear.update");
  ENW_CHECK(x.size() == in_dim() && dy.size() == out_dim());
  // g = -lr * dy is formed first, so each term rounds as the product
  // (-lr * dy) * x. Zero inputs skip whole rows of W^T (exact for finite
  // operands).
  Vector g(dy.size());
  for (std::size_t r = 0; r < dy.size(); ++r) g[r] = -lr * dy[r];
  rank1_update(wt_, x, g, 1.0f, ZeroSkip::kSkipZeroInputs);
}

void DigitalLinear::forward_batch(const Matrix& x, Matrix& y) {
  ENW_SPAN("nn.linear.forward_batch");
  ENW_CHECK(x.cols() == in_dim() && y.rows() == x.rows() && y.cols() == out_dim());
  y = matmul(x, wt_);
}

void DigitalLinear::backward_batch(const Matrix& dy, Matrix& dx) {
  ENW_SPAN("nn.linear.backward_batch");
  ENW_CHECK(dy.cols() == out_dim() && dx.rows() == dy.rows() && dx.cols() == in_dim());
  dx = matmul_nt(dy, wt_);
}

void DigitalLinear::update_batch(const Matrix& x, const Matrix& dy, float lr) {
  ENW_SPAN("nn.linear.update_batch");
  ENW_CHECK(x.cols() == in_dim() && dy.cols() == out_dim() && x.rows() == dy.rows());
  // Same per-term product as update(), folded in sample order.
  Matrix g(dy.rows(), dy.cols());
  const float* d = dy.data();
  float* gd = g.data();
  for (std::size_t i = 0; i < g.size(); ++i) gd[i] = -lr * d[i];
  matmul_tn_acc(wt_, x, g, 1.0f, ZeroSkip::kSkipZeroInputs);
}

Matrix DigitalLinear::weights() const { return transpose(wt_); }

void DigitalLinear::set_weights(const Matrix& w) {
  ENW_CHECK_MSG(w.rows() == out_dim() && w.cols() == in_dim(),
                "set_weights shape mismatch");
  wt_ = transpose(w);
}

LinearOpsFactory DigitalLinear::factory(Rng& rng) {
  return [&rng](std::size_t out, std::size_t in) {
    return std::make_unique<DigitalLinear>(out, in, rng);
  };
}

}  // namespace enw::nn
