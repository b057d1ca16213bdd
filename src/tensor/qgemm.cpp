#include "tensor/qgemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/obs.h"
#include "tensor/kernels_internal.h"

namespace enw {

namespace detail {

void qgemm_nt_s32_ref(const std::int8_t* a8, const std::int8_t* b8,
                      std::int32_t* c32, std::size_t m, std::size_t n,
                      std::size_t k) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* ar = a8 + i * k;
    std::int32_t* cr = c32 + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const std::int8_t* br = b8 + j * k;
      std::int32_t acc = 0;
      for (std::size_t kx = 0; kx < k; ++kx)
        acc += static_cast<std::int32_t>(ar[kx]) *
               static_cast<std::int32_t>(br[kx]);
      cr[j] = acc;
    }
  }
}

void s8_axpy_scalar(float* dst, const std::int8_t* codes, float scale,
                    std::size_t n) {
  // Mul-then-add per element (the tree builds with -ffp-contract=off, so it
  // stays two roundings) — the convention the simd tables match bitwise.
  for (std::size_t i = 0; i < n; ++i)
    dst[i] += scale * static_cast<float>(codes[i]);
}

// Quantize one row against a precomputed reciprocal scale. __restrict__
// matters: the int8 destination would otherwise alias the float source
// (signed char aliases anything) and block vectorization of this loop.
void quantize_row_s8(const float* __restrict__ row,
                     std::int8_t* __restrict__ codes, std::size_t n,
                     float inv) {
  for (std::size_t j = 0; j < n; ++j) {
    const float c = std::nearbyint(row[j] * inv);
    codes[j] = static_cast<std::int8_t>(std::clamp(c, -127.0f, 127.0f));
  }
}

}  // namespace detail

Int8RowMatrix quantize_rows_s8(const Matrix& a) {
  ENW_SPAN("tensor.quantize_rows_s8");
  Int8RowMatrix q;
  q.rows = a.rows();
  q.cols = a.cols();
  q.codes.assign(a.rows() * a.cols(), 0);
  q.scales.assign(a.rows(), 0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float* row = a.data() + r * a.cols();
    // amax as an unsigned max over sign-cleared IEEE bit patterns: identical
    // to max(|x|) for finite inputs (non-negative floats order like their
    // bits), but an integer reduction the compiler vectorizes — the float
    // max chain is serial on maxss latency and dominated this routine.
    std::uint32_t amax_bits = 0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      std::uint32_t bits;
      std::memcpy(&bits, &row[j], sizeof(bits));
      amax_bits = std::max(amax_bits, bits & 0x7fffffffu);
    }
    float amax;
    std::memcpy(&amax, &amax_bits, sizeof(amax));
    if (amax == 0.0f) continue;  // scale 0, zero codes: dequantizes exactly
    const float scale = amax / 127.0f;
    const float inv = 127.0f / amax;
    detail::quantize_row_s8(row, q.codes.data() + r * a.cols(), a.cols(), inv);
    q.scales[r] = scale;
  }
  return q;
}

void qgemm_nt_s32(const Int8RowMatrix& a, const Int8RowMatrix& b,
                  std::vector<std::int32_t>& c32) {
  ENW_SPAN("tensor.qgemm_nt_s32");
  ENW_CHECK_MSG(a.cols == b.cols, "qgemm_nt dimension mismatch");
  ENW_CHECK_MSG(a.codes.size() == a.rows * a.cols &&
                    b.codes.size() == b.rows * b.cols,
                "qgemm_nt code buffer size mismatch");
  ENW_CHECK_MSG(a.cols <= core::kQgemmMaxK,
                "qgemm_nt k exceeds exact int32 accumulation bound");
  obs::counter_add("tensor.qgemm_nt.macs",
                   static_cast<std::uint64_t>(a.rows) * b.rows * a.cols);
  c32.assign(a.rows * b.rows, 0);
  if (a.rows == 0 || b.rows == 0) return;
  core::backend().qgemm_nt_s32(a.codes.data(), b.codes.data(), c32.data(),
                               a.rows, b.rows, a.cols);
}

Matrix qgemm_nt(const Int8RowMatrix& a, const Int8RowMatrix& b) {
  std::vector<std::int32_t> c32;
  qgemm_nt_s32(a, b, c32);
  Matrix c(a.rows, b.rows);
  for (std::size_t i = 0; i < a.rows; ++i) {
    const float sa = a.scales[i];
    float* crow = c.data() + i * b.rows;
    const std::int32_t* srow = c32.data() + i * b.rows;
    for (std::size_t j = 0; j < b.rows; ++j)
      crow[j] = (sa * b.scales[j]) * static_cast<float>(srow[j]);
  }
  return c;
}

void s8_axpy(std::span<float> dst, std::span<const std::int8_t> codes,
             float scale) {
  ENW_CHECK_MSG(dst.size() == codes.size(), "s8_axpy size mismatch");
  core::backend().s8_axpy(dst.data(), codes.data(), scale, dst.size());
}

}  // namespace enw
