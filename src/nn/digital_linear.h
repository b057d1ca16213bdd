// Plain floating-point LinearOps backend — the digital reference that the
// paper's analog designs are compared against.
//
// Storage is input-major: the one weight matrix held is W^T (in_dim x
// out_dim), the layout the k-ordered gemm_kn kernel streams, so the forward
// pass (y = W x = x^T W^T) runs as matvec_transposed / matmul over it, the
// backward pass (dx = W^T dy) as matvec / matmul_nt, and the update as a
// rank-1 / accumulated outer product into W^T. The LinearOps contract is
// unchanged: weights() and set_weights() still speak the logical out x in
// W and transpose on those cold calls.
#pragma once

#include "nn/linear_ops.h"
#include "core/rng.h"

namespace enw::nn {

class DigitalLinear final : public LinearOps {
 public:
  /// Kaiming-initialized weights (drawn in out x in order, then stored
  /// transposed, so a seed gives the same model as a row-major draw).
  DigitalLinear(std::size_t out_dim, std::size_t in_dim, Rng& rng);
  /// Explicit initial weights, logical W (out x in).
  explicit DigitalLinear(Matrix w);

  /// Adopts an input-major W^T (in x out) as the storage itself, without a
  /// transpose: a borrowed view (zero-copy artifact load) stays borrowed.
  static std::unique_ptr<DigitalLinear> from_transposed(Matrix wt);

  std::size_t out_dim() const override { return wt_.cols(); }
  std::size_t in_dim() const override { return wt_.rows(); }

  void forward(std::span<const float> x, std::span<float> y) override;
  void backward(std::span<const float> dy, std::span<float> dx) override;
  void update(std::span<const float> x, std::span<const float> dy, float lr) override;

  // Whole-batch GEMM realizations of the per-sample primitives, bitwise
  // identical to looping them (see tensor/ops.h kernel contracts).
  void forward_batch(const Matrix& x, Matrix& y) override;
  void backward_batch(const Matrix& dy, Matrix& dx) override;
  void update_batch(const Matrix& x, const Matrix& dy, float lr) override;

  Matrix weights() const override;
  void set_weights(const Matrix& w) override;

  /// Convenience factory for network builders.
  static LinearOpsFactory factory(Rng& rng);

 private:
  struct InputMajor {};
  DigitalLinear(Matrix wt, InputMajor);

  Matrix wt_;  // W^T: in_dim x out_dim
};

}  // namespace enw::nn
