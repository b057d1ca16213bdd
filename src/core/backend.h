// enw::core::KernelBackend — the runtime-selected compute backend behind the
// tensor kernel layer (DESIGN.md §10).
//
// Two implementations are registered (src/tensor/backends.cpp):
//
//   reference — the naive scalar oracles
//   simd      — explicit AVX2+FMA kernels, with AVX-512 variants used when
//               cpuid reports avx512f/avx512bw
//
// One fp32 definition: every fp32 output is a single std::fmaf chain in k
// (or sample) order, which `simd` vectorizes across outputs and never
// across k. So the two backends, and simd's AVX2 and AVX-512 tables, give
// bitwise-identical results; they differ only in speed.
//
// Selection: the first kernel call resolves the ENW_BACKEND environment
// variable ("reference" | "simd" | "auto"); unset means "auto", which picks
// `simd` when the CPU supports it and `reference` otherwise. An unknown name,
// or requesting `simd` on a CPU without AVX2+FMA, throws
// std::invalid_argument — never a silent fallback. set_backend() overrides
// at runtime.
//
// The paired-kernel contract (relied on by every batched-vs-per-sample
// bitwise test): the batched kernel is bitwise-identical to its per-sample
// sibling —
//   matmul_nt row i      == matvec of row i
//   matmul row s         == matvec_transposed
//   matmul_tn_acc        == sequential rank1_update
// Since every kernel computes the same chains, this holds within a backend
// and across backends alike.
//
// This header lives in core so the dispatch contract is visible below the
// tensor layer; the implementations and the registry live in enw_tensor
// (which owns Matrix). Binaries using these symbols link enw_tensor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace enw {

class Matrix;  // defined in tensor/matrix.h
using Vector = std::vector<float>;

/// Whether a kernel may skip work for exactly-zero input elements.
///
/// Skipping is NOT a pure optimization: `acc += 0.0f * row[c]` propagates
/// NaN/Inf from `row` and can flip -0.0 to +0.0, while skipping leaves acc
/// untouched. The default is therefore kNone (exact IEEE semantics); callers
/// that know their operands are finite (e.g. SGD backprop through ReLU-
/// sparse deltas) opt in for the sparsity win.
enum class ZeroSkip { kNone, kSkipZeroInputs };

namespace core {

class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// Selection name: "reference", "simd".
  virtual const char* name() const = 0;

  /// ISA level actually executing ("scalar", "avx2", "avx512").
  virtual const char* isa() const = 0;

  // --- fp32 kernels (shapes validated by the enw:: dispatch wrappers) -----
  virtual Vector matvec(const Matrix& a, std::span<const float> x) const = 0;
  virtual Vector matvec_transposed(const Matrix& a, std::span<const float> x,
                                   ZeroSkip skip) const = 0;
  virtual Matrix matmul(const Matrix& a, const Matrix& b, ZeroSkip skip) const = 0;
  virtual Matrix matmul_nt(const Matrix& a, const Matrix& b) const = 0;
  virtual void matmul_tn_acc(Matrix& c, const Matrix& a, const Matrix& b,
                             float scale, ZeroSkip skip) const = 0;
  virtual void rank1_update(Matrix& a, std::span<const float> u,
                            std::span<const float> v, float scale,
                            ZeroSkip skip) const = 0;
  virtual Matrix transpose(const Matrix& a) const = 0;

  // --- int8 quantized kernels --------------------------------------------
  // Integer arithmetic is exact, so these are bitwise-identical across ALL
  // backends too.

  /// C(i,j) = sum_k a8[i*k + kx] * b8[j*k + kx], accumulated in int32
  /// (products widened in-register; callers guarantee k <= kQgemmMaxK so the
  /// int32 accumulator cannot overflow). a8 is (m x k) row-major, b8 is
  /// (n x k) row-major — the int8 twin of matmul_nt.
  virtual void qgemm_nt_s32(const std::int8_t* a8, const std::int8_t* b8,
                            std::int32_t* c32, std::size_t m, std::size_t n,
                            std::size_t k) const = 0;

  /// dst[j] += scale * codes[j] for j in [0, n) — the int8 embedding
  /// gather-and-pool primitive (one dequantized row accumulated into the
  /// pooled output without materializing an fp32 copy of the row).
  virtual void s8_axpy(float* dst, const std::int8_t* codes, float scale,
                       std::size_t n) const = 0;
};

/// Largest k for which qgemm_nt_s32 provably cannot overflow int32:
/// k * 127 * 127 <= INT32_MAX.
inline constexpr std::size_t kQgemmMaxK = 133152;

/// The active backend. First call resolves ENW_BACKEND (see file comment);
/// throws std::invalid_argument on an unknown or unavailable name.
const KernelBackend& backend();

/// Select a backend by name at runtime ("reference" | "simd" | "auto").
/// Throws std::invalid_argument when the name is unknown or the backend is
/// unavailable on this CPU; the previous selection is kept.
void set_backend(const std::string& name);

/// Drop the current selection so the next backend() call re-resolves
/// ENW_BACKEND. For tests of the env protocol and for bench harnesses.
void reset_backend_selection();

/// The currently selected backend, or nullptr when selection is unresolved
/// (the next backend() call will consult ENW_BACKEND). Unlike backend(),
/// never resolves or throws — for save/restore scopes.
const KernelBackend* current_backend_selection();

/// All backends available on this machine, in dispatch-preference order
/// (reference, then simd when the CPU supports it).
std::vector<const KernelBackend*> available_backends();

/// Lookup by name; nullptr when unknown/unavailable (set_backend throws
/// instead — this is the non-throwing probe).
const KernelBackend* find_backend(const std::string& name);

}  // namespace core
}  // namespace enw
