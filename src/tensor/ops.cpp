#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "core/parallel.h"
#include "obs/obs.h"
#include "tensor/kernels_internal.h"

namespace enw {

// ---------------------------------------------------------------------------
// Naive reference kernels (the `reference` backend).
//
// These are the textbook scalar triple loops, and they define the tree's one
// fp32 numeric rule: every output element is a single std::fmaf chain taken
// strictly in k (or sample) order, starting from 0 (or from the existing
// element for the accumulating kernels). The simd kernels run the same chains
// one output per vector lane, so equivalence tests assert exact equality
// across backends. rank1_update and matmul_tn_acc round scale*u[r] /
// scale*A(s,r) once before the chain, and ZeroSkip tests that pre-formed
// factor (or the A element) for exact zero, on every backend alike.
// ---------------------------------------------------------------------------

namespace detail {

Vector matvec_ref(const Matrix& a, std::span<const float> x) {
  ENW_CHECK_MSG(a.cols() == x.size(), "matvec dimension mismatch");
  Vector y(a.rows(), 0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float* row = a.data() + r * a.cols();
    float acc = 0.0f;
    for (std::size_t c = 0; c < a.cols(); ++c)
      acc = std::fmaf(x[c], row[c], acc);
    y[r] = acc;
  }
  return y;
}

Vector matvec_transposed_ref(const Matrix& a, std::span<const float> x,
                             ZeroSkip skip) {
  ENW_CHECK_MSG(a.rows() == x.size(), "matvec_transposed dimension mismatch");
  Vector y(a.cols(), 0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float xr = x[r];
    if (skip == ZeroSkip::kSkipZeroInputs && xr == 0.0f) continue;
    const float* row = a.data() + r * a.cols();
    for (std::size_t c = 0; c < a.cols(); ++c)
      y[c] = std::fmaf(xr, row[c], y[c]);
  }
  return y;
}

Matrix matmul_ref(const Matrix& a, const Matrix& b, ZeroSkip skip) {
  ENW_CHECK_MSG(a.cols() == b.rows(), "matmul dimension mismatch");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        const float av = a(i, k);
        if (skip == ZeroSkip::kSkipZeroInputs && av == 0.0f) continue;
        acc = std::fmaf(av, b(k, j), acc);
      }
      c(i, j) = acc;
    }
  }
  return c;
}

Matrix matmul_nt_ref(const Matrix& a, const Matrix& b) {
  ENW_CHECK_MSG(a.cols() == b.cols(), "matmul_nt dimension mismatch");
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k)
        acc = std::fmaf(a(i, k), b(j, k), acc);
      c(i, j) = acc;
    }
  }
  return c;
}

void matmul_tn_acc_ref(Matrix& c, const Matrix& a, const Matrix& b, float scale,
                       ZeroSkip skip) {
  ENW_CHECK_MSG(a.rows() == b.rows(), "matmul_tn_acc batch mismatch");
  ENW_CHECK_MSG(c.rows() == a.cols() && c.cols() == b.cols(),
                "matmul_tn_acc output shape mismatch");
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t s = 0; s < a.rows(); ++s) {
      const float f = scale * a(s, r);
      if (skip == ZeroSkip::kSkipZeroInputs && f == 0.0f) continue;
      for (std::size_t j = 0; j < c.cols(); ++j)
        c(r, j) = std::fmaf(f, b(s, j), c(r, j));
    }
  }
}

void rank1_update_ref(Matrix& a, std::span<const float> u,
                      std::span<const float> v, float scale, ZeroSkip skip) {
  ENW_CHECK_MSG(a.rows() == u.size() && a.cols() == v.size(),
                "rank1_update dimension mismatch");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float s = scale * u[r];
    if (skip == ZeroSkip::kSkipZeroInputs && s == 0.0f) continue;
    float* row = a.data() + r * a.cols();
    for (std::size_t c = 0; c < a.cols(); ++c)
      row[c] = std::fmaf(s, v[c], row[c]);
  }
}

Matrix transpose_ref(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
  return t;
}

// Tile transpose, parallel over output-row blocks: the simd backend's
// transpose (pure data movement, so any tiling gives the same bits).
Matrix transpose_blocked(const Matrix& a) {
  const std::size_t m = a.rows(), n = a.cols();
  Matrix t(n, m);
  constexpr std::size_t kTile = 64;  // 64x64 float tile = 16 KiB, L1-resident
  parallel::parallel_for(0, n, kTile, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t r0 = 0; r0 < m; r0 += kTile) {
      const std::size_t r1 = std::min(r0 + kTile, m);
      for (std::size_t cx = c0; cx < c1; ++cx) {
        float* trow = t.data() + cx * m;
        const float* src = a.data() + r0 * n + cx;
        for (std::size_t r = r0; r < r1; ++r, src += n) trow[r] = *src;
      }
    }
  });
  return t;
}

}  // namespace detail

Vector matvec_reference(const Matrix& a, std::span<const float> x) {
  return detail::matvec_ref(a, x);
}

Vector matvec_transposed_reference(const Matrix& a, std::span<const float> x) {
  return detail::matvec_transposed_ref(a, x, ZeroSkip::kNone);
}

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  return detail::matmul_ref(a, b, ZeroSkip::kNone);
}

Matrix matmul_nt_reference(const Matrix& a, const Matrix& b) {
  return detail::matmul_nt_ref(a, b);
}

void matmul_tn_acc_reference(Matrix& c, const Matrix& a, const Matrix& b,
                             float scale) {
  detail::matmul_tn_acc_ref(c, a, b, scale, ZeroSkip::kNone);
}

void rank1_update_reference(Matrix& a, std::span<const float> u,
                            std::span<const float> v, float scale) {
  detail::rank1_update_ref(a, u, v, scale, ZeroSkip::kNone);
}

Matrix transpose_reference(const Matrix& a) { return detail::transpose_ref(a); }

// ---------------------------------------------------------------------------
// Public kernel entry points: validate, trace, dispatch to the active backend.
// ---------------------------------------------------------------------------

Vector matvec(const Matrix& a, std::span<const float> x) {
  ENW_SPAN("tensor.matvec");
  ENW_CHECK_MSG(a.cols() == x.size(), "matvec dimension mismatch");
  obs::counter_add("tensor.matvec.flops", 2ull * a.rows() * a.cols());
  return core::backend().matvec(a, x);
}

Vector matvec_transposed(const Matrix& a, std::span<const float> x, ZeroSkip skip) {
  ENW_SPAN("tensor.matvec_transposed");
  ENW_CHECK_MSG(a.rows() == x.size(), "matvec_transposed dimension mismatch");
  return core::backend().matvec_transposed(a, x, skip);
}

Matrix matmul(const Matrix& a, const Matrix& b, ZeroSkip skip) {
  ENW_SPAN("tensor.matmul");
  ENW_CHECK_MSG(a.cols() == b.rows(), "matmul dimension mismatch");
  obs::counter_add("tensor.matmul.flops", 2ull * a.rows() * a.cols() * b.cols());
  return core::backend().matmul(a, b, skip);
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  ENW_SPAN("tensor.matmul_nt");
  ENW_CHECK_MSG(a.cols() == b.cols(), "matmul_nt dimension mismatch");
  obs::counter_add("tensor.matmul_nt.flops", 2ull * a.rows() * a.cols() * b.rows());
  return core::backend().matmul_nt(a, b);
}

void matmul_tn_acc(Matrix& c, const Matrix& a, const Matrix& b, float scale,
                   ZeroSkip skip) {
  ENW_SPAN("tensor.matmul_tn_acc");
  ENW_CHECK_MSG(a.rows() == b.rows(), "matmul_tn_acc batch mismatch");
  ENW_CHECK_MSG(c.rows() == a.cols() && c.cols() == b.cols(),
                "matmul_tn_acc output shape mismatch");
  core::backend().matmul_tn_acc(c, a, b, scale, skip);
}

void rank1_update(Matrix& a, std::span<const float> u, std::span<const float> v,
                  float scale, ZeroSkip skip) {
  ENW_SPAN("tensor.rank1_update");
  ENW_CHECK_MSG(a.rows() == u.size() && a.cols() == v.size(),
                "rank1_update dimension mismatch");
  core::backend().rank1_update(a, u, v, scale, skip);
}

Matrix transpose(const Matrix& a) {
  ENW_SPAN("tensor.transpose");
  return core::backend().transpose(a);
}

Vector add(std::span<const float> a, std::span<const float> b) {
  ENW_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector sub(std::span<const float> a, std::span<const float> b) {
  ENW_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector hadamard(std::span<const float> a, std::span<const float> b) {
  ENW_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

Vector scale(std::span<const float> a, float s) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

float dot(std::span<const float> a, std::span<const float> b) {
  ENW_CHECK(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

float l2_norm(std::span<const float> a) { return std::sqrt(dot(a, a)); }

float l1_norm(std::span<const float> a) {
  float acc = 0.0f;
  for (float v : a) acc += std::abs(v);
  return acc;
}

float max_abs(std::span<const float> a) {
  float m = 0.0f;
  for (float v : a) m = std::max(m, std::abs(v));
  return m;
}

float sum(std::span<const float> a) {
  float acc = 0.0f;
  for (float v : a) acc += v;
  return acc;
}

Vector softmax(std::span<const float> logits) { return softmax(logits, 1.0f); }

Vector softmax(std::span<const float> logits, float beta) {
  ENW_CHECK_MSG(!logits.empty(), "softmax of empty vector");
  float maxv = logits[0] * beta;
  for (float v : logits) maxv = std::max(maxv, v * beta);
  Vector out(logits.size());
  float denom = 0.0f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] * beta - maxv);
    denom += out[i];
  }
  for (auto& v : out) v /= denom;
  return out;
}

std::size_t argmax(std::span<const float> a) {
  ENW_CHECK_MSG(!a.empty(), "argmax of empty vector");
  std::size_t best = 0;
  for (std::size_t i = 1; i < a.size(); ++i)
    if (a[i] > a[best]) best = i;
  return best;
}

Matrix im2col(const Matrix& image, std::size_t height, std::size_t width,
              std::size_t kh, std::size_t kw, std::size_t stride, std::size_t pad) {
  const std::size_t channels = image.rows();
  ENW_CHECK_MSG(image.cols() == height * width, "image shape mismatch");
  ENW_CHECK(stride > 0 && kh > 0 && kw > 0);
  ENW_CHECK_MSG(height + 2 * pad >= kh && width + 2 * pad >= kw,
                "kernel larger than padded image");
  const std::size_t out_h = (height + 2 * pad - kh) / stride + 1;
  const std::size_t out_w = (width + 2 * pad - kw) / stride + 1;
  Matrix cols(channels * kh * kw, out_h * out_w);
  // Each channel owns rows [c*kh*kw, (c+1)*kh*kw) of the output — disjoint
  // writes, so channel-parallel execution is trivially deterministic.
  parallel::parallel_for(0, channels, 1, [&](std::size_t cb, std::size_t ce) {
  for (std::size_t c = cb; c < ce; ++c) {
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx) {
        const std::size_t row = (c * kh + ky) * kw + kx;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) - static_cast<std::ptrdiff_t>(pad);
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) - static_cast<std::ptrdiff_t>(pad);
            float v = 0.0f;
            if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(height) && ix >= 0 &&
                ix < static_cast<std::ptrdiff_t>(width)) {
              v = image(c, static_cast<std::size_t>(iy) * width + static_cast<std::size_t>(ix));
            }
            cols(row, oy * out_w + ox) = v;
          }
        }
      }
    }
  }
  });
  return cols;
}

Matrix col2im(const Matrix& cols, std::size_t channels, std::size_t height,
              std::size_t width, std::size_t kh, std::size_t kw, std::size_t stride,
              std::size_t pad) {
  ENW_CHECK(stride > 0 && kh > 0 && kw > 0);
  const std::size_t out_h = (height + 2 * pad - kh) / stride + 1;
  const std::size_t out_w = (width + 2 * pad - kw) / stride + 1;
  ENW_CHECK_MSG(cols.rows() == channels * kh * kw && cols.cols() == out_h * out_w,
                "col2im shape mismatch");
  Matrix image(channels, height * width);
  // Scatter-adds for channel c only touch image row c; per-pixel accumulation
  // order (ky, kx, oy, ox) is fixed, so channel-parallel stays bitwise stable.
  parallel::parallel_for(0, channels, 1, [&](std::size_t cb, std::size_t ce) {
  for (std::size_t c = cb; c < ce; ++c) {
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx) {
        const std::size_t row = (c * kh + ky) * kw + kx;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ky) - static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(height)) continue;
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) - static_cast<std::ptrdiff_t>(pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(width)) continue;
            image(c, static_cast<std::size_t>(iy) * width + static_cast<std::size_t>(ix)) +=
                cols(row, oy * out_w + ox);
          }
        }
      }
    }
  }
  });
  return image;
}

}  // namespace enw
