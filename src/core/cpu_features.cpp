#include "core/cpu_features.h"

namespace enw::core {

namespace {

CpuFeatures probe() {
  CpuFeatures f;
#if (defined(__GNUC__) || defined(__clang__)) && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
  f.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  // Magic-static: probed once, thread-safe per the C++11 init guarantee.
  static const CpuFeatures features = probe();
  return features;
}

std::string cpu_feature_summary() {
  const CpuFeatures& f = cpu_features();
  std::string s;
  s += "avx2=";
  s += f.avx2 ? '1' : '0';
  s += " fma=";
  s += f.fma ? '1' : '0';
  s += " avx512f=";
  s += f.avx512f ? '1' : '0';
  s += " avx512bw=";
  s += f.avx512bw ? '1' : '0';
  return s;
}

float mul_add_as_written(float a, float b, float c) { return a * b + c; }

}  // namespace enw::core
