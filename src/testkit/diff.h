// Differential-check harness (enw::testkit).
//
// The library's central correctness claims are equivalences: batched == per
// sample, threads=N == threads=1, simd kernel == naive reference, analog
// with zero noise ≈ digital. PR 1/2 asserted these with ad-hoc memcmp
// helpers copied between test files; this header promotes the pattern into a
// reusable harness that (a) runs the same workload through two
// configurations, (b) reports the FIRST divergence location with its ULP
// distance instead of a bare boolean, and (c) expresses tolerance as an
// explicit policy — bitwise by default, bounded-ULP for analog-vs-digital
// comparisons where the arithmetic legitimately differs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "core/backend.h"
#include "tensor/matrix.h"

namespace enw::testkit {

/// Bit-pattern distance between two floats: the number of representable
/// values between them (0 for identical bits; distances cross zero smoothly,
/// so -FLT_MIN vs +FLT_MIN is 2). Any NaN operand yields UINT64_MAX unless
/// both operands have identical bit patterns.
std::uint64_t ulp_distance(float a, float b);

/// When is a pair of elements "equal"? The default (max_ulps == 0) is
/// BITWISE: identical bit patterns, so -0.0 vs +0.0 and differing NaN
/// payloads fail — exactly the contract the kernel-equivalence tests need.
/// A nonzero max_ulps accepts that many ULPs of separation (two NaNs then
/// also compare equal); abs_slack additionally accepts |a-b| <= abs_slack
/// regardless of ULPs (useful near zero, where ULP distance explodes).
struct TolerancePolicy {
  std::uint64_t max_ulps = 0;
  float abs_slack = 0.0f;

  static TolerancePolicy bitwise() { return {}; }
  static TolerancePolicy ulps(std::uint64_t n) { return {n, 0.0f}; }

  bool accepts(float lhs, float rhs) const;
};

/// The first location where two value sequences part ways.
struct Divergence {
  bool diverged = false;
  std::size_t index = 0;  // flat index of the first diverging element
  std::size_t row = 0;    // index / cols when comparing matrices
  std::size_t col = 0;    // index % cols when comparing matrices
  float lhs = 0.0f;
  float rhs = 0.0f;
  std::uint64_t ulps = 0;
  std::string context;  // trace-entry name, shape-mismatch note, ...

  bool ok() const { return !diverged; }
  /// Human-readable one-liner: location, both values (hex-float), ULPs.
  std::string report() const;
};

/// First element where lhs and rhs differ under the policy. A size mismatch
/// diverges immediately with an explanatory context.
Divergence first_divergence(std::span<const float> lhs,
                            std::span<const float> rhs,
                            const TolerancePolicy& policy = {});

/// Matrix overload: also fills row/col of the divergence and checks shape.
Divergence first_divergence(const Matrix& lhs, const Matrix& rhs,
                            const TolerancePolicy& policy = {});

/// Result of running one workload through two configurations.
struct DiffResult {
  std::string lhs_label;
  std::string rhs_label;
  Divergence div;

  bool ok() const { return !div.diverged; }
  std::string report() const;
};

/// Run the same workload through two configurations and diff the outputs.
/// The workload returns its observable output as a Matrix (wrap a Vector as
/// a 1 x n matrix). Configurations are encoded in the closures — e.g. one
/// calls forward() in a loop, the other forward_batch(); one runs under
/// ThreadScope(1), the other ThreadScope(8).
DiffResult differential_check(const std::string& lhs_label,
                              const std::function<Matrix()>& lhs,
                              const std::string& rhs_label,
                              const std::function<Matrix()>& rhs,
                              const TolerancePolicy& policy = {});

/// RAII override of the pool thread count; restores the entry value. The
/// shared helper behind every "bitwise across thread counts" test.
class ThreadScope {
 public:
  explicit ThreadScope(std::size_t n);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  std::size_t saved_;
};

/// Run fn with the pool set to n threads (restored afterwards).
Matrix with_threads(std::size_t n, const std::function<Matrix()>& fn);

/// RAII kernel-backend pin; restores the previous selection state on exit
/// (including "unresolved", so a test that never forced a backend leaves the
/// ENW_BACKEND/auto resolution untouched for the next test). The shared
/// helper behind every cross-backend test: the backends compute identical
/// bits, so a test runs one workload under each registered backend and
/// compares bitwise, without letting the ambient backend decide what a
/// kernel call means.
class BackendScope {
 public:
  explicit BackendScope(const std::string& name);
  ~BackendScope();
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  const core::KernelBackend* saved_;  // nullptr = selection was unresolved
};

/// Run fn with the named kernel backend active (restored afterwards).
Matrix with_backend(const std::string& name, const std::function<Matrix()>& fn);

/// Wrap a vector as a 1 x n Matrix (for differential_check workloads).
Matrix as_row(std::span<const float> v);

}  // namespace enw::testkit
