// KernelBackend implementations and the runtime registry (core/backend.h).
//
// Lives in enw_tensor rather than enw_core because the backends need Matrix
// and the simd kernel tables; core only owns the interface. Like every TU it
// is built with -ffp-contract=off (src/core/CMakeLists.txt), so the scalar
// scratch math below (scale * u[r] etc.) rounds exactly once, matching the
// reference kernels.

#include "core/backend.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cpu_features.h"
#include "core/parallel.h"
#include "tensor/kernels_internal.h"
#include "tensor/matrix.h"

#if defined(ENW_SIMD_AVX2) || defined(ENW_SIMD_AVX512)
#include "tensor/simd_tables.h"
#define ENW_HAVE_SIMD_BACKEND 1
#endif

namespace enw::core {

namespace {

/// Rows per chunk targeting ~16K elements of work per task: a pure function
/// of shape, never of thread count.
std::size_t row_grain(std::size_t inner, std::size_t floor_rows) {
  return std::max(floor_rows, 16384 / std::max<std::size_t>(1, inner));
}

class ReferenceBackend final : public KernelBackend {
 public:
  const char* name() const override { return "reference"; }
  const char* isa() const override { return "scalar"; }

  Vector matvec(const Matrix& a, std::span<const float> x) const override {
    return detail::matvec_ref(a, x);
  }
  Vector matvec_transposed(const Matrix& a, std::span<const float> x,
                           ZeroSkip skip) const override {
    return detail::matvec_transposed_ref(a, x, skip);
  }
  Matrix matmul(const Matrix& a, const Matrix& b, ZeroSkip skip) const override {
    return detail::matmul_ref(a, b, skip);
  }
  Matrix matmul_nt(const Matrix& a, const Matrix& b) const override {
    return detail::matmul_nt_ref(a, b);
  }
  void matmul_tn_acc(Matrix& c, const Matrix& a, const Matrix& b, float scale,
                     ZeroSkip skip) const override {
    detail::matmul_tn_acc_ref(c, a, b, scale, skip);
  }
  void rank1_update(Matrix& a, std::span<const float> u,
                    std::span<const float> v, float scale,
                    ZeroSkip skip) const override {
    detail::rank1_update_ref(a, u, v, scale, skip);
  }
  Matrix transpose(const Matrix& a) const override {
    return detail::transpose_ref(a);
  }
  void qgemm_nt_s32(const std::int8_t* a8, const std::int8_t* b8,
                    std::int32_t* c32, std::size_t m, std::size_t n,
                    std::size_t k) const override {
    detail::qgemm_nt_s32_ref(a8, b8, c32, m, n, k);
  }
  void s8_axpy(float* dst, const std::int8_t* codes, float scale,
               std::size_t n) const override {
    detail::s8_axpy_scalar(dst, codes, scale, n);
  }
};

#ifdef ENW_HAVE_SIMD_BACKEND

class SimdBackend final : public KernelBackend {
 public:
  explicit SimdBackend(const detail::SimdKernelTable& t) : t_(t) {}

  const char* name() const override { return "simd"; }
  const char* isa() const override { return t_.isa; }

  Vector matvec(const Matrix& a, std::span<const float> x) const override {
    // y (1 x m) = x (1 x n) · Aᵀ: the m = 1 case of matmul_nt, so a matvec
    // is bitwise one row of the batched product.
    Vector y(a.rows(), 0.0f);
    gemm_nt(x.data(), a.data(), y.data(), 1, a.cols(), a.rows());
    return y;
  }

  Vector matvec_transposed(const Matrix& a, std::span<const float> x,
                           ZeroSkip skip) const override {
    // y (1 x n) = x (1 x m) · A (m x n). Column chunks are safe: an output
    // element's FMA chain never depends on which j-panel it lands in.
    const std::size_t m = a.rows(), n = a.cols();
    Vector y(n, 0.0f);
    const std::size_t grain =
        std::max<std::size_t>(256, 16384 / std::max<std::size_t>(1, m));
    parallel::parallel_for(0, n, grain, [&](std::size_t c0, std::size_t c1) {
      t_.gemm_kn(x.data(), m, a.data() + c0, n, y.data() + c0, n, 1, m,
                 c1 - c0, /*accumulate=*/false,
                 skip == ZeroSkip::kSkipZeroInputs);
    });
    return y;
  }

  Matrix matmul(const Matrix& a, const Matrix& b, ZeroSkip skip) const override {
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    Matrix c(m, n);
    const std::size_t grain =
        std::max<std::size_t>(4, 16384 / std::max<std::size_t>(1, k * n / 8 + 1));
    parallel::parallel_for(0, m, grain, [&](std::size_t i0, std::size_t i1) {
      t_.gemm_kn(a.data() + i0 * k, k, b.data(), n, c.data() + i0 * n, n,
                 i1 - i0, k, n, /*accumulate=*/false,
                 skip == ZeroSkip::kSkipZeroInputs);
    });
    return c;
  }

  Matrix matmul_nt(const Matrix& a, const Matrix& b) const override {
    Matrix c(a.rows(), b.rows());
    gemm_nt(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.rows());
    return c;
  }

  void matmul_tn_acc(Matrix& c, const Matrix& a, const Matrix& b, float scale,
                     ZeroSkip skip) const override {
    // Pre-form f(r, s) = scale * A(s, r) — one rounding, exactly like
    // rank1_update's s = scale * u[r] — then fold samples in s order as an
    // accumulating gemm. Bitwise equal to `batch` sequential rank1_updates.
    const std::size_t batch = a.rows(), m = c.rows(), n = c.cols();
    std::vector<float> f(m * batch);
    for (std::size_t s = 0; s < batch; ++s) {
      const float* arow = a.data() + s * m;
      for (std::size_t r = 0; r < m; ++r) f[r * batch + s] = scale * arow[r];
    }
    parallel::parallel_for(0, m, row_grain(batch * n / 4 + 1, 1),
                           [&](std::size_t r0, std::size_t r1) {
      t_.gemm_kn(f.data() + r0 * batch, batch, b.data(), n,
                 c.data() + r0 * n, n, r1 - r0, batch, n, /*accumulate=*/true,
                 skip == ZeroSkip::kSkipZeroInputs);
    });
  }

  void rank1_update(Matrix& a, std::span<const float> u,
                    std::span<const float> v, float scale,
                    ZeroSkip skip) const override {
    const std::size_t m = a.rows(), n = a.cols();
    std::vector<float> f(m);
    for (std::size_t r = 0; r < m; ++r) f[r] = scale * u[r];
    parallel::parallel_for(0, m, row_grain(n, 16),
                           [&](std::size_t r0, std::size_t r1) {
      t_.gemm_kn(f.data() + r0, 1, v.data(), n, a.data() + r0 * n, n, r1 - r0,
                 1, n, /*accumulate=*/true, skip == ZeroSkip::kSkipZeroInputs);
    });
  }

  Matrix transpose(const Matrix& a) const override {
    // Pure data movement: the parallel tile transpose is already optimal here.
    return detail::transpose_blocked(a);
  }

  void qgemm_nt_s32(const std::int8_t* a8, const std::int8_t* b8,
                    std::int32_t* c32, std::size_t m, std::size_t n,
                    std::size_t k) const override {
    parallel::parallel_for(0, m, row_grain(k * n / 8 + 1, 1),
                           [&](std::size_t i0, std::size_t i1) {
      t_.qgemm_nt_s32(a8 + i0 * k, b8, c32 + i0 * n, i1 - i0, n, k);
    });
  }

  void s8_axpy(float* dst, const std::int8_t* codes, float scale,
               std::size_t n) const override {
    t_.s8_axpy(dst, codes, scale, n);
  }

 private:
  /// Columns per parallel chunk of gemm_nt: a multiple of both tables' pack
  /// panel (4 vectors: 32 or 64 columns), so no chunk splits a panel.
  static constexpr std::size_t kNtPanel = 64;

  /// c (m x n) = a (m x k) · bᵀ, b (n x k), all dense row-major. Chunks own
  /// disjoint column panels and each packs its own B rows, so the partition
  /// (a pure function of the shape) never changes a bit.
  void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n) const {
    const std::size_t panels = (n + kNtPanel - 1) / kNtPanel;
    parallel::parallel_for(0, panels, row_grain(kNtPanel * k * m, 1),
                           [&](std::size_t p0, std::size_t p1) {
      const std::size_t j0 = p0 * kNtPanel;
      const std::size_t j1 = std::min(n, p1 * kNtPanel);
      t_.gemm_nt(a, k, b + j0 * k, k, c + j0, n, m, k, j1 - j0);
    });
  }

  const detail::SimdKernelTable& t_;
};

#endif  // ENW_HAVE_SIMD_BACKEND

const KernelBackend& reference_instance() {
  static const ReferenceBackend b;
  return b;
}

/// The simd backend for this machine, or nullptr when the CPU (or the
/// compiler that built us) lacks the required ISA. Prefers the avx512 table.
const KernelBackend* simd_instance_or_null() {
#ifdef ENW_HAVE_SIMD_BACKEND
  const CpuFeatures& f = cpu_features();
#ifdef ENW_SIMD_AVX512
  if (f.avx512f && f.avx512bw && f.avx2 && f.fma) {
    static const SimdBackend b{detail::simd_avx512_table()};
    return &b;
  }
#endif
#ifdef ENW_SIMD_AVX2
  if (f.avx2 && f.fma) {
    static const SimdBackend b{detail::simd_avx2_table()};
    return &b;
  }
#endif
#endif  // ENW_HAVE_SIMD_BACKEND
  return nullptr;
}

std::atomic<const KernelBackend*> g_active{nullptr};

const KernelBackend* resolve_or_throw(const std::string& name) {
  if (name == "auto") {
    const KernelBackend* simd = simd_instance_or_null();
    return simd ? simd : &reference_instance();
  }
  if (name == "reference") return &reference_instance();
  if (name == "simd") {
    const KernelBackend* simd = simd_instance_or_null();
    if (!simd) {
      throw std::invalid_argument(
          "kernel backend 'simd' is unavailable on this CPU (needs avx2+fma; "
          "detected " + cpu_feature_summary() + ")");
    }
    return simd;
  }
  throw std::invalid_argument("unknown kernel backend '" + name +
                              "' (expected reference|simd|auto)");
}

}  // namespace

const KernelBackend& backend() {
  const KernelBackend* b = g_active.load(std::memory_order_acquire);
  if (!b) {
    // ENW_BACKEND is resolved on first use, not at static-init time, so a
    // bogus value fails loudly inside the first kernel call (catchable and
    // testable) instead of crashing before main. Concurrent first calls
    // resolve to the same pointer; the double store is benign.
    const char* env = std::getenv("ENW_BACKEND");
    b = resolve_or_throw(env && *env ? env : "auto");
    g_active.store(b, std::memory_order_release);
  }
  return *b;
}

void set_backend(const std::string& name) {
  g_active.store(resolve_or_throw(name), std::memory_order_release);
}

void reset_backend_selection() {
  g_active.store(nullptr, std::memory_order_release);
}

const KernelBackend* current_backend_selection() {
  return g_active.load(std::memory_order_acquire);
}

std::vector<const KernelBackend*> available_backends() {
  std::vector<const KernelBackend*> out{&reference_instance()};
  if (const KernelBackend* simd = simd_instance_or_null()) out.push_back(simd);
  return out;
}

const KernelBackend* find_backend(const std::string& name) {
  if (name == "reference") return &reference_instance();
  if (name == "simd") return simd_instance_or_null();
  // "auto" is a selection policy, not a backend name; set_backend resolves it.
  return nullptr;
}

}  // namespace enw::core
