// Runtime CPU feature detection (cpuid) for the kernel-backend dispatcher.
//
// The paper's emerging workloads are won or lost on low-precision dense math,
// and how fast that math runs depends on which vector ISA the host exposes.
// This probe is the single source of truth the backend registry (and the
// bench JSON writers, for cross-machine perf comparability) consult.
#pragma once

#include <string>

namespace enw::core {

/// Vector-ISA capabilities of the executing CPU. Fields are false on
/// non-x86 targets or when the compiler offers no probe.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512bw = false;  // byte/word ops — the int8 GEMM widening path
};

/// Probe once (cached); thread-safe.
const CpuFeatures& cpu_features();

/// "avx2=1 fma=1 avx512f=0 avx512bw=0" — for logs and bench metadata.
std::string cpu_feature_summary();

/// a*b + c as the library's own code rounds it. Under the tree's one
/// contraction rule (-ffp-contract=off, src/core/CMakeLists.txt) the product
/// is rounded before the add; a build that drops the rule on an FMA target
/// fuses the two. A canary for the rule, checked in tests/test_core.cpp.
float mul_add_as_written(float a, float b, float c);

}  // namespace enw::core
