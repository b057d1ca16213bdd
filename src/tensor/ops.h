// Linear-algebra kernels on Matrix / Vector.
//
// These are the digital reference implementations that the analog crossbar
// models are validated against: matvec here is the "exact" counterpart of
// the Ohm's-law/Kirchhoff's-law readout in src/analog.
//
// Every kernel below dispatches through the runtime-selected
// core::KernelBackend (reference | simd — see core/backend.h and DESIGN.md
// §10). Each fp32 output is one std::fmaf chain in k (or sample) order on
// every backend, so results are bitwise identical across backends, ISAs and
// thread counts. ZeroSkip lives in core/backend.h alongside the backend
// interface; it is re-exported here unchanged.
#pragma once

#include <span>

#include "core/backend.h"
#include "tensor/matrix.h"

namespace enw {

/// y = A x. A is (m x n), x has n elements, y gets m elements. Each y[r] is
/// one fmaf chain over row r in column order: bitwise matvec_reference on
/// every backend and thread count.
Vector matvec(const Matrix& a, std::span<const float> x);

/// y = A^T x. A is (m x n), x has m elements, y gets n elements.
/// Each output column accumulates over rows in fixed order, so results are
/// bitwise deterministic across thread counts and backends.
Vector matvec_transposed(const Matrix& a, std::span<const float> x,
                         ZeroSkip skip = ZeroSkip::kNone);

/// C = A B. The minibatch forward GEMM over input-major weights (B = W^T,
/// as nn::DigitalLinear stores them): row s of C holds
/// matvec_transposed(B, A.row(s)) bitwise under the same skip
/// mode, for every thread count. With kSkipZeroInputs, terms whose A(i,k)
/// is exactly zero are skipped.
Matrix matmul(const Matrix& a, const Matrix& b, ZeroSkip skip = ZeroSkip::kNone);

/// C = A B^T. A is (m x k), B is (n x k), C gets (m x n). The minibatch
/// backward GEMM over input-major weights (dX = dY (W^T)^T): row i of C holds
/// matvec(B, A.row(i)) bitwise, for every thread count — the paired-kernel
/// contract batched code relies on.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// C += scale * A^T B. A is (batch x m), B is (batch x n), C is (m x n) —
/// the accumulated-outer-product (minibatch weight-gradient) kernel. Each
/// element folds samples in batch order as C(r,c) += (scale*A(s,r))*B(s,c),
/// exactly the operation sequence of `batch` successive rank1_update calls,
/// so it is bitwise-identical to the per-sample update loop.
/// kSkipZeroInputs skips samples whose scale*A(s,r) is exactly zero (same
/// contract as rank1_update).
void matmul_tn_acc(Matrix& c, const Matrix& a, const Matrix& b, float scale,
                   ZeroSkip skip = ZeroSkip::kNone);

/// A += scale * u v^T (rank-1 update; digital counterpart of the analog
/// parallel outer-product update in Fig. 1 of the paper). Row-parallel.
void rank1_update(Matrix& a, std::span<const float> u, std::span<const float> v,
                  float scale, ZeroSkip skip = ZeroSkip::kNone);

/// Blocked tile transpose, parallel over output-row blocks.
Matrix transpose(const Matrix& a);

/// Naive scalar triple-loop reference kernels. Retained on purpose: these ARE
/// the `reference` backend, the bitwise ground truth every other backend is
/// validated against, and bench_kernels reports speedups against them. They
/// never dispatch — calling matvec_reference always runs the scalar loop no
/// matter which backend is active. Do not "optimize" these.
Vector matvec_reference(const Matrix& a, std::span<const float> x);
Vector matvec_transposed_reference(const Matrix& a, std::span<const float> x);
Matrix matmul_reference(const Matrix& a, const Matrix& b);
Matrix matmul_nt_reference(const Matrix& a, const Matrix& b);
void matmul_tn_acc_reference(Matrix& c, const Matrix& a, const Matrix& b, float scale);
void rank1_update_reference(Matrix& a, std::span<const float> u,
                            std::span<const float> v, float scale);
Matrix transpose_reference(const Matrix& a);

/// Element-wise vector helpers.
Vector add(std::span<const float> a, std::span<const float> b);
Vector sub(std::span<const float> a, std::span<const float> b);
Vector hadamard(std::span<const float> a, std::span<const float> b);
Vector scale(std::span<const float> a, float s);
float dot(std::span<const float> a, std::span<const float> b);
float l2_norm(std::span<const float> a);
float l1_norm(std::span<const float> a);
float max_abs(std::span<const float> a);
float sum(std::span<const float> a);

/// Numerically stable softmax.
Vector softmax(std::span<const float> logits);
/// Softmax with temperature beta: softmax(beta * logits).
Vector softmax(std::span<const float> logits, float beta);

/// Index of the maximum element (first on ties). Requires non-empty input.
std::size_t argmax(std::span<const float> a);

/// im2col for 2-D convolution on a single-channel-major image tensor.
/// Input image: channels x (height * width) row-major per channel.
/// Output: (channels * kh * kw) rows, (out_h * out_w) columns.
Matrix im2col(const Matrix& image, std::size_t height, std::size_t width,
              std::size_t kh, std::size_t kw, std::size_t stride, std::size_t pad);

/// Adjoint of im2col: scatter-add columns back into image layout.
Matrix col2im(const Matrix& cols, std::size_t channels, std::size_t height,
              std::size_t width, std::size_t kh, std::size_t kw, std::size_t stride,
              std::size_t pad);

}  // namespace enw
