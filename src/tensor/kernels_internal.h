// Internal kernel implementations behind the KernelBackend dispatch layer.
//
// Not part of the public API: include only from src/tensor TUs (ops.cpp,
// backends.cpp, qgemm.cpp). The public entry points in tensor/ops.h and
// tensor/qgemm.h validate shapes, record obs spans/counters, and forward to
// the active core::backend(), whose methods call these.
//
// Naming: `*_ref` are the scalar oracles (now with ZeroSkip support so the
// reference backend honors the same skip contract the public API exposes);
// `*_blocked` are the cache-blocked, thread-parallel kernels. Both families
// accumulate strictly in k/sample order with no FMA contraction (the tree
// builds with -ffp-contract=off), so ref and blocked are bitwise-identical.
#pragma once

#include <cstdint>
#include <span>

#include "core/backend.h"
#include "tensor/matrix.h"

namespace enw::detail {

// --- scalar reference kernels ----------------------------------------------
Vector matvec_ref(const Matrix& a, std::span<const float> x);
Vector matvec_transposed_ref(const Matrix& a, std::span<const float> x,
                             ZeroSkip skip);
Matrix matmul_ref(const Matrix& a, const Matrix& b, ZeroSkip skip);
Matrix matmul_nt_ref(const Matrix& a, const Matrix& b);
void matmul_tn_acc_ref(Matrix& c, const Matrix& a, const Matrix& b, float scale,
                       ZeroSkip skip);
void rank1_update_ref(Matrix& a, std::span<const float> u,
                      std::span<const float> v, float scale, ZeroSkip skip);
Matrix transpose_ref(const Matrix& a);

// --- cache-blocked parallel kernels ----------------------------------------
Vector matvec_blocked(const Matrix& a, std::span<const float> x);
Vector matvec_transposed_blocked(const Matrix& a, std::span<const float> x,
                                 ZeroSkip skip);
Matrix matmul_blocked(const Matrix& a, const Matrix& b, ZeroSkip skip);
Matrix matmul_nt_blocked(const Matrix& a, const Matrix& b);
void matmul_tn_acc_blocked(Matrix& c, const Matrix& a, const Matrix& b,
                           float scale, ZeroSkip skip);
void rank1_update_blocked(Matrix& a, std::span<const float> u,
                          std::span<const float> v, float scale, ZeroSkip skip);
Matrix transpose_blocked(const Matrix& a);

// --- int8 kernels (exact integer math — bitwise across every variant) ------
void qgemm_nt_s32_ref(const std::int8_t* a8, const std::int8_t* b8,
                      std::int32_t* c32, std::size_t m, std::size_t n,
                      std::size_t k);
void qgemm_nt_s32_blocked(const std::int8_t* a8, const std::int8_t* b8,
                          std::int32_t* c32, std::size_t m, std::size_t n,
                          std::size_t k);
void s8_axpy_scalar(float* dst, const std::int8_t* codes, float scale,
                    std::size_t n);

}  // namespace enw::detail
