// int8 quantized GEMM: the low-precision inference path of Sec. II.
//
// The paper's argument (and the TPU paper's) is that inference throughput is
// won in int8: 4x the operands per vector lane, exact integer accumulation,
// and no fp32 widening until one final rescale. This header provides the
// storage type (per-row symmetric quantization), the exact int8 x int8 ->
// int32 product, and the dequantizing wrapper used by nn/quant's int8
// inference engine and the recsys embedding pooling path.
//
// All integer kernels are exact, so results are bitwise-identical across
// both backends (reference, simd), both simd ISAs, and every thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/backend.h"
#include "tensor/matrix.h"

namespace enw {

/// Row-major int8 matrix with per-row dequantization scales:
/// value(i, j) = scales[i] * codes[i * cols + j].
struct Int8RowMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int8_t> codes;  // rows * cols, row-major
  Vector scales;                   // one per row

  bool empty() const { return codes.empty(); }
};

/// Symmetric per-row quantization: scales[i] = max|row i| / 127, codes are
/// nearbyint(x / scale) clamped to [-127, 127]. All-zero rows get scale 0
/// and zero codes (they dequantize exactly). Deterministic: plain scalar
/// math, independent of backend and thread count.
Int8RowMatrix quantize_rows_s8(const Matrix& a);

/// c32 = A B^T exactly in int32 over the raw codes (A: m x k, B: n x k;
/// scales are NOT applied). c32 is resized to m*n, row-major. Requires
/// k <= core::kQgemmMaxK so the int32 accumulator provably cannot overflow.
void qgemm_nt_s32(const Int8RowMatrix& a, const Int8RowMatrix& b,
                  std::vector<std::int32_t>& c32);

/// Dequantized product: C(i, j) = a.scales[i] * b.scales[j] * (A B^T)(i, j).
/// The int8 twin of matmul_nt — same (m x k) x (n x k) -> (m x n) shape.
Matrix qgemm_nt(const Int8RowMatrix& a, const Int8RowMatrix& b);

/// dst[j] += scale * codes[j] — accumulate one dequantized int8 row into an
/// fp32 buffer (embedding gather-and-pool without materializing the row).
/// Per-element mul-then-add on every backend, so bitwise backend-invariant.
void s8_axpy(std::span<float> dst, std::span<const std::int8_t> codes,
             float scale);

}  // namespace enw
