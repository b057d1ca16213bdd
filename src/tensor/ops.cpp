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
// These are the textbook scalar triple loops. They define the bitwise ground
// truth: the blocked kernels below perform the exact same sequence of float
// operations per output element (accumulation strictly in k/row order, and
// no FMA contraction: the tree builds with -ffp-contract=off), so
// equivalence tests can assert exact equality. The ZeroSkip branches skip the
// same exactly-zero terms the blocked kernels skip, preserving that identity
// in skip mode too.
// ---------------------------------------------------------------------------

namespace detail {

Vector matvec_ref(const Matrix& a, std::span<const float> x) {
  ENW_CHECK_MSG(a.cols() == x.size(), "matvec dimension mismatch");
  Vector y(a.rows(), 0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float* row = a.data() + r * a.cols();
    float acc = 0.0f;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
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
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += row[c] * xr;
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
        acc += av * b(k, j);
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
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
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
      for (std::size_t j = 0; j < c.cols(); ++j) c(r, j) += f * b(s, j);
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
    for (std::size_t c = 0; c < a.cols(); ++c) row[c] += s * v[c];
  }
}

Matrix transpose_ref(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
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
// Blocked / parallel kernels (the `blocked` backend).
//
// Grain sizes are pure functions of the problem shape (never of the thread
// count), so parallel_for's chunk partition — and therefore the result — is
// identical for every ENW_THREADS setting.
// ---------------------------------------------------------------------------

namespace {

/// Rows per chunk targeting ~16K elements of work per task.
std::size_t row_grain(std::size_t inner, std::size_t floor_rows) {
  return std::max(floor_rows, 16384 / std::max<std::size_t>(1, inner));
}

}  // namespace

namespace detail {

Vector matvec_blocked(const Matrix& a, std::span<const float> x) {
  ENW_CHECK_MSG(a.cols() == x.size(), "matvec dimension mismatch");
  const std::size_t m = a.rows(), n = a.cols();
  Vector y(m, 0.0f);
  parallel::parallel_for(0, m, row_grain(n, 8), [&](std::size_t r0, std::size_t r1) {
    std::size_t r = r0;
    // 4-row blocks share the streamed x vector from L1.
    for (; r + 4 <= r1; r += 4) {
      const float* p0 = a.data() + r * n;
      const float* p1 = p0 + n;
      const float* p2 = p1 + n;
      const float* p3 = p2 + n;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (std::size_t c = 0; c < n; ++c) {
        const float xc = x[c];
        acc0 += p0[c] * xc;
        acc1 += p1[c] * xc;
        acc2 += p2[c] * xc;
        acc3 += p3[c] * xc;
      }
      y[r] = acc0;
      y[r + 1] = acc1;
      y[r + 2] = acc2;
      y[r + 3] = acc3;
    }
    for (; r < r1; ++r) {
      const float* row = a.data() + r * n;
      float acc = 0.0f;
      for (std::size_t c = 0; c < n; ++c) acc += row[c] * x[c];
      y[r] = acc;
    }
  });
  return y;
}

Vector matvec_transposed_blocked(const Matrix& a, std::span<const float> x,
                                 ZeroSkip skip) {
  ENW_CHECK_MSG(a.rows() == x.size(), "matvec_transposed dimension mismatch");
  const std::size_t m = a.rows(), n = a.cols();
  Vector y(n, 0.0f);
  // Column-chunked: each chunk owns a disjoint slice of y and accumulates
  // over rows in fixed order — no partials to merge. y[c]'s summation order
  // does not depend on the chunk layout at all, so both branches below (and
  // any thread count) produce identical bits. Single-threaded, full-width
  // row streaming beats strided column passes, so skip the chunking there.
  if (parallel::thread_count() <= 1) {
    for (std::size_t r = 0; r < m; ++r) {
      const float xr = x[r];
      if (skip == ZeroSkip::kSkipZeroInputs && xr == 0.0f) continue;
      const float* row = a.data() + r * n;
      for (std::size_t c = 0; c < n; ++c) y[c] += row[c] * xr;
    }
    return y;
  }
  const std::size_t grain = std::max<std::size_t>(256, 16384 / std::max<std::size_t>(1, m));
  parallel::parallel_for(0, n, grain, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t r = 0; r < m; ++r) {
      const float xr = x[r];
      if (skip == ZeroSkip::kSkipZeroInputs && xr == 0.0f) continue;
      const float* row = a.data() + r * n;
      for (std::size_t c = c0; c < c1; ++c) y[c] += row[c] * xr;
    }
  });
  return y;
}

Matrix matmul_blocked(const Matrix& a, const Matrix& b, ZeroSkip skip) {
  ENW_CHECK_MSG(a.cols() == b.rows(), "matmul dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  constexpr std::size_t kKc = 256;  // k-panel: keeps a b-panel resident in L2
  const std::size_t grain = std::max<std::size_t>(4, 16384 / std::max<std::size_t>(1, k * n / 8 + 1));
  if (skip == ZeroSkip::kSkipZeroInputs) {
    // Sparse-A path (ReLU-sparse minibatch deltas): plain row streaming with
    // the zero test hoisted to one branch per (i, k) term. Accumulation per
    // element stays in k order, matching both the dense path below and
    // matvec_transposed's per-sample skip semantics bitwise.
    parallel::parallel_for(0, m, grain, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        float* crow = c.data() + i * n;
        const float* arow = a.data() + i * k;
        for (std::size_t kx = 0; kx < k; ++kx) {
          const float av = arow[kx];
          if (av == 0.0f) continue;
          const float* br = b.data() + kx * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += av * br[j];
        }
      }
    });
    return c;
  }
  parallel::parallel_for(0, m, grain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t kk = 0; kk < k; kk += kKc) {
      const std::size_t kend = std::min(kk + kKc, k);
      std::size_t i = i0;
      // Register-blocked 4-row micro-kernel: one streamed b row updates four
      // c rows, quadrupling reuse of the b panel.
      for (; i + 4 <= i1; i += 4) {
        float* c0 = c.data() + i * n;
        float* c1 = c0 + n;
        float* c2 = c1 + n;
        float* c3 = c2 + n;
        const float* a0 = a.data() + i * k;
        const float* a1 = a0 + k;
        const float* a2 = a1 + k;
        const float* a3 = a2 + k;
        for (std::size_t kx = kk; kx < kend; ++kx) {
          const float av0 = a0[kx], av1 = a1[kx], av2 = a2[kx], av3 = a3[kx];
          const float* br = b.data() + kx * n;
          for (std::size_t j = 0; j < n; ++j) {
            const float bv = br[j];
            c0[j] += av0 * bv;
            c1[j] += av1 * bv;
            c2[j] += av2 * bv;
            c3[j] += av3 * bv;
          }
        }
      }
      for (; i < i1; ++i) {
        float* crow = c.data() + i * n;
        const float* arow = a.data() + i * k;
        for (std::size_t kx = kk; kx < kend; ++kx) {
          const float av = arow[kx];
          const float* br = b.data() + kx * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += av * br[j];
        }
      }
    }
  });
  return c;
}

}  // namespace detail

namespace {

/// Output lanes per packed b panel. One k step of the packed micro-kernel
/// reads kLanes consecutive floats, so the lane loop vectorizes without
/// reassociating any dot: lanes never interact, each output element remains
/// an independent k-order accumulation.
constexpr std::size_t kLanes = 8;

#if defined(__GNUC__) || defined(__clang__)
// GNU vector extension: element-wise IEEE mul/add on 8 lanes at once. Lanes
// are independent scalars — no horizontal ops, no reassociation — so each
// lane's accumulator is bit-identical to the plain scalar loop. The compiler
// SLP pass mangles the array form of this kernel (scalar adds + shuffles);
// the explicit vector type keeps the accumulators in registers.
#define ENW_HAVE_V8 1
typedef float V8 __attribute__((vector_size(32), aligned(4), may_alias));
static_assert(kLanes * sizeof(float) == 32);

inline V8 v8_load(const float* p) { return *reinterpret_cast<const V8*>(p); }
inline V8 v8_splat(float x) { return V8{x, x, x, x, x, x, x, x}; }
#endif

/// Per-row matmul_nt fallback for tiny batches, where packing b would cost
/// as much as the product itself. Same k-order dots as the packed path.
void matmul_nt_rowwise(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  const std::size_t grain = row_grain(k * n / 8 + 1, 1);
  parallel::parallel_for(0, m, grain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* arow = a.data() + i * k;
      float* crow = c.data() + i * n;
      std::size_t j = 0;
      // 4 b-rows at a time share the streamed a row from L1.
      for (; j + 4 <= n; j += 4) {
        const float* b0 = b.data() + j * k;
        const float* b1 = b0 + k;
        const float* b2 = b1 + k;
        const float* b3 = b2 + k;
        float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
        for (std::size_t kx = 0; kx < k; ++kx) {
          const float av = arow[kx];
          acc0 += b0[kx] * av;
          acc1 += b1[kx] * av;
          acc2 += b2[kx] * av;
          acc3 += b3[kx] * av;
        }
        crow[j] = acc0;
        crow[j + 1] = acc1;
        crow[j + 2] = acc2;
        crow[j + 3] = acc3;
      }
      for (; j < n; ++j) {
        const float* brow = b.data() + j * k;
        float acc = 0.0f;
        for (std::size_t kx = 0; kx < k; ++kx) acc += brow[kx] * arow[kx];
        crow[j] = acc;
      }
    }
  });
}

}  // namespace

namespace detail {

Matrix matmul_nt_blocked(const Matrix& a, const Matrix& b) {
  ENW_CHECK_MSG(a.cols() == b.cols(), "matmul_nt dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  if (m < 4) {
    matmul_nt_rowwise(a, b, c);
    return c;
  }
  // Batched path: pack kLanes b-rows into a k-major panel (panel[kx*kLanes+jj]
  // = b(j0+jj, kx)) so each k step feeds all lanes from consecutive floats —
  // the lane loop vectorizes, which a per-sample matvec's k-reduction cannot.
  // The 4-sample micro-kernel reuses each packed load across four independent
  // accumulator sets, hiding the add latency of the lane-wise chains. Every
  // output element is still a single dot accumulated in k order, so C.row(i)
  // is bitwise equal to matvec(b, a.row(i)) for any batch or thread count.
  // Panels write disjoint column ranges of c, and the panel partition is a
  // pure function of n — deterministic under any ENW_THREADS.
  const std::size_t panels = (n + kLanes - 1) / kLanes;
  parallel::parallel_for(0, panels, 1, [&](std::size_t p0, std::size_t p1) {
    std::vector<float> packed(kLanes * k);
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t j0 = p * kLanes;
      const std::size_t jw = std::min(kLanes, n - j0);
      for (std::size_t jj = 0; jj < jw; ++jj) {
        const float* brow = b.data() + (j0 + jj) * k;
        for (std::size_t kx = 0; kx < k; ++kx) packed[kx * kLanes + jj] = brow[kx];
      }
      std::size_t i = 0;
      if (jw == kLanes) {
#ifdef ENW_HAVE_V8
        for (; i + 4 <= m; i += 4) {
          const float* a0 = a.data() + i * k;
          const float* a1 = a0 + k;
          const float* a2 = a1 + k;
          const float* a3 = a2 + k;
          V8 acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
          for (std::size_t kx = 0; kx < k; ++kx) {
            const V8 bv = v8_load(packed.data() + kx * kLanes);
            acc0 += bv * v8_splat(a0[kx]);
            acc1 += bv * v8_splat(a1[kx]);
            acc2 += bv * v8_splat(a2[kx]);
            acc3 += bv * v8_splat(a3[kx]);
          }
          for (std::size_t jj = 0; jj < kLanes; ++jj) {
            c(i, j0 + jj) = acc0[jj];
            c(i + 1, j0 + jj) = acc1[jj];
            c(i + 2, j0 + jj) = acc2[jj];
            c(i + 3, j0 + jj) = acc3[jj];
          }
        }
        for (; i < m; ++i) {
          const float* arow = a.data() + i * k;
          V8 acc = {};
          for (std::size_t kx = 0; kx < k; ++kx)
            acc += v8_load(packed.data() + kx * kLanes) * v8_splat(arow[kx]);
          for (std::size_t jj = 0; jj < kLanes; ++jj) c(i, j0 + jj) = acc[jj];
        }
#else
        for (; i + 4 <= m; i += 4) {
          const float* a0 = a.data() + i * k;
          const float* a1 = a0 + k;
          const float* a2 = a1 + k;
          const float* a3 = a2 + k;
          float acc0[kLanes] = {}, acc1[kLanes] = {}, acc2[kLanes] = {},
                acc3[kLanes] = {};
          for (std::size_t kx = 0; kx < k; ++kx) {
            const float* bp = packed.data() + kx * kLanes;
            const float av0 = a0[kx], av1 = a1[kx], av2 = a2[kx], av3 = a3[kx];
            for (std::size_t jj = 0; jj < kLanes; ++jj) {
              const float bv = bp[jj];
              acc0[jj] += bv * av0;
              acc1[jj] += bv * av1;
              acc2[jj] += bv * av2;
              acc3[jj] += bv * av3;
            }
          }
          for (std::size_t jj = 0; jj < kLanes; ++jj) {
            c(i, j0 + jj) = acc0[jj];
            c(i + 1, j0 + jj) = acc1[jj];
            c(i + 2, j0 + jj) = acc2[jj];
            c(i + 3, j0 + jj) = acc3[jj];
          }
        }
#endif
      }
      for (; i < m; ++i) {
        const float* arow = a.data() + i * k;
        float acc[kLanes] = {};
        for (std::size_t kx = 0; kx < k; ++kx) {
          const float* bp = packed.data() + kx * kLanes;
          const float av = arow[kx];
          for (std::size_t jj = 0; jj < jw; ++jj) acc[jj] += bp[jj] * av;
        }
        for (std::size_t jj = 0; jj < jw; ++jj) c(i, j0 + jj) = acc[jj];
      }
    }
  });
  return c;
}

void matmul_tn_acc_blocked(Matrix& c, const Matrix& a, const Matrix& b,
                           float scale, ZeroSkip skip) {
  ENW_CHECK_MSG(a.rows() == b.rows(), "matmul_tn_acc batch mismatch");
  ENW_CHECK_MSG(c.rows() == a.cols() && c.cols() == b.cols(),
                "matmul_tn_acc output shape mismatch");
  const std::size_t batch = a.rows(), m = c.rows(), n = c.cols();
  // Each chunk owns whole rows of c; a row folds the batch in sample order,
  // exactly like `batch` sequential rank1_update calls would — so the result
  // is bitwise-identical to the per-sample update loop under any thread
  // count. scale*A(s,r) is formed first (one rounding) just as rank1_update
  // forms s = scale * u[r].
  parallel::parallel_for(0, m, row_grain(batch * n / 4 + 1, 1),
                         [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      float* crow = c.data() + r * n;
      for (std::size_t s = 0; s < batch; ++s) {
        const float f = scale * a.data()[s * m + r];
        if (skip == ZeroSkip::kSkipZeroInputs && f == 0.0f) continue;
        const float* brow = b.data() + s * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += f * brow[j];
      }
    }
  });
}

void rank1_update_blocked(Matrix& a, std::span<const float> u,
                          std::span<const float> v, float scale, ZeroSkip skip) {
  ENW_CHECK_MSG(a.rows() == u.size() && a.cols() == v.size(),
                "rank1_update dimension mismatch");
  const std::size_t n = a.cols();
  parallel::parallel_for(0, a.rows(), row_grain(n, 16),
                         [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const float s = scale * u[r];
      if (skip == ZeroSkip::kSkipZeroInputs && s == 0.0f) continue;
      float* row = a.data() + r * n;
      for (std::size_t c = 0; c < n; ++c) row[c] += s * v[c];
    }
  });
}

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
