// ISA-specific kernel tables for the `simd` backend.
//
// Each table is exported by a TU compiled with the matching -m flags
// (simd_avx2.cpp, simd_avx512.cpp); everything else in enw_tensor is built
// for the baseline ISA, so the intrinsics stay quarantined behind these
// function pointers and calling a table is safe exactly when cpuid says so
// (SimdBackend checks core::cpu_features() before picking one).
//
// Determinism contract (what makes the simd backend testable):
//  - dot: fixed reduction — 4 vector accumulators filled in k order, explicit
//    pairwise horizontal halving, scalar fmaf tail. Depends only on n, and is
//    symmetric in a/b, so matvec and matmul_nt built on it are bitwise
//    consistent with each other (the paired-kernel contract).
//  - gemm_kn: every output element is one strictly-k-ordered FMA chain, one
//    vector lane per column; the i/j register tiling only regroups
//    independent chains. Columns past the last full 4-vector panel run in
//    one narrower panel whose last vector is lane-masked (__mmask16 on
//    AVX-512, maskload/maskstore on AVX2): masked lanes are never loaded or
//    stored, so nothing past column n is touched, and each live lane is the
//    same chain as in a full panel — bit-identical to a scalar std::fmaf
//    chain in k order. So results never depend on tile boundaries, column
//    or row chunking, or thread count, and the AVX2 and AVX-512 tables
//    agree bitwise.
//  - qgemm_nt_s32: pure int32 arithmetic — exact, bitwise across every
//    backend and ISA.
//  - s8_axpy: per-element mul-then-add (deliberately NOT fma) so it matches
//    the scalar fallback bitwise.
#pragma once

#include <cstddef>
#include <cstdint>

namespace enw::detail {

struct SimdKernelTable {
  const char* isa;  // "avx2" or "avx512"

  /// sum_i a[i]*b[i] under the fixed reduction above.
  float (*dot)(const float* a, const float* b, std::size_t n);

  /// c[i*ldc + j] (+)= sum_k a[i*lda + kx] * b[kx*ldb + j]
  /// for i in [0, m), j in [0, n). With accumulate=false, c is overwritten
  /// (chains start at 0); with true, chains start at the existing c value.
  /// skip_zero_a skips terms whose a element is exactly zero (the ZeroSkip
  /// contract). Each element is one k-ordered FMA chain regardless of flags.
  void (*gemm_kn)(const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float* c, std::size_t ldc, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate,
                  bool skip_zero_a);

  /// c32[i*n + j] = sum_k a8[i*k + kx] * b8[j*k + kx], exact int32.
  void (*qgemm_nt_s32)(const std::int8_t* a8, const std::int8_t* b8,
                       std::int32_t* c32, std::size_t m, std::size_t n,
                       std::size_t k);

  /// dst[j] += scale * codes[j] (mul+add per element, no fma).
  void (*s8_axpy)(float* dst, const std::int8_t* codes, float scale,
                  std::size_t n);
};

#ifdef ENW_SIMD_AVX2
const SimdKernelTable& simd_avx2_table();
#endif
#ifdef ENW_SIMD_AVX512
const SimdKernelTable& simd_avx512_table();
#endif

}  // namespace enw::detail
