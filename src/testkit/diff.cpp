#include "testkit/diff.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/parallel.h"

namespace enw::testkit {

namespace {

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Map the float bit pattern onto a monotone integer line so that adjacent
/// representable values are adjacent integers and the line crosses zero
/// continuously (the classic bit-twiddle behind "ULP difference").
std::int64_t ordered(float f) {
  const std::uint32_t u = bits_of(f);
  const std::int64_t magnitude = static_cast<std::int64_t>(u & 0x7fffffffu);
  return (u & 0x80000000u) ? -magnitude : magnitude;
}

std::string hexfloat(float v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g (%a)", static_cast<double>(v),
                static_cast<double>(v));
  return buf;
}

}  // namespace

std::uint64_t ulp_distance(float a, float b) {
  if (bits_of(a) == bits_of(b)) return 0;
  if (std::isnan(a) || std::isnan(b)) return UINT64_MAX;
  const std::int64_t oa = ordered(a);
  const std::int64_t ob = ordered(b);
  return static_cast<std::uint64_t>(oa > ob ? oa - ob : ob - oa);
}

bool TolerancePolicy::accepts(float lhs, float rhs) const {
  if (bits_of(lhs) == bits_of(rhs)) return true;
  const bool lnan = std::isnan(lhs), rnan = std::isnan(rhs);
  if (lnan || rnan) {
    // Differing-payload NaNs only pass under a non-bitwise policy.
    return lnan && rnan && max_ulps > 0;
  }
  if (abs_slack > 0.0f && std::abs(lhs - rhs) <= abs_slack) return true;
  if (max_ulps == 0) return false;
  return ulp_distance(lhs, rhs) <= max_ulps;
}

std::string Divergence::report() const {
  if (!diverged) return "no divergence";
  std::string out = "first divergence at [" + std::to_string(index) + "]";
  if (row != 0 || col != 0 || index != 0) {
    out += " (row " + std::to_string(row) + ", col " + std::to_string(col) + ")";
  }
  out += ": lhs=" + hexfloat(lhs) + " rhs=" + hexfloat(rhs);
  out += ulps == UINT64_MAX ? ", ulps=nan-mismatch"
                            : ", ulps=" + std::to_string(ulps);
  if (!context.empty()) out += " [" + context + "]";
  return out;
}

Divergence first_divergence(std::span<const float> lhs,
                            std::span<const float> rhs,
                            const TolerancePolicy& policy) {
  Divergence d;
  if (lhs.size() != rhs.size()) {
    d.diverged = true;
    d.index = std::min(lhs.size(), rhs.size());
    d.context = "size mismatch: lhs " + std::to_string(lhs.size()) + " vs rhs " +
                std::to_string(rhs.size());
    return d;
  }
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    if (!policy.accepts(lhs[i], rhs[i])) {
      d.diverged = true;
      d.index = i;
      d.lhs = lhs[i];
      d.rhs = rhs[i];
      d.ulps = ulp_distance(lhs[i], rhs[i]);
      return d;
    }
  }
  return d;
}

Divergence first_divergence(const Matrix& lhs, const Matrix& rhs,
                            const TolerancePolicy& policy) {
  if (lhs.rows() != rhs.rows() || lhs.cols() != rhs.cols()) {
    Divergence d;
    d.diverged = true;
    d.context = "shape mismatch: lhs " + std::to_string(lhs.rows()) + "x" +
                std::to_string(lhs.cols()) + " vs rhs " +
                std::to_string(rhs.rows()) + "x" + std::to_string(rhs.cols());
    return d;
  }
  Divergence d = first_divergence(
      std::span<const float>(lhs.data(), lhs.size()),
      std::span<const float>(rhs.data(), rhs.size()), policy);
  if (d.diverged && lhs.cols() > 0) {
    d.row = d.index / lhs.cols();
    d.col = d.index % lhs.cols();
  }
  return d;
}

std::string DiffResult::report() const {
  if (!div.diverged) {
    return lhs_label + " vs " + rhs_label + ": equivalent";
  }
  return lhs_label + " vs " + rhs_label + ": " + div.report();
}

DiffResult differential_check(const std::string& lhs_label,
                              const std::function<Matrix()>& lhs,
                              const std::string& rhs_label,
                              const std::function<Matrix()>& rhs,
                              const TolerancePolicy& policy) {
  DiffResult r;
  r.lhs_label = lhs_label;
  r.rhs_label = rhs_label;
  const Matrix a = lhs();
  const Matrix b = rhs();
  r.div = first_divergence(a, b, policy);
  return r;
}

ThreadScope::ThreadScope(std::size_t n) : saved_(parallel::thread_count()) {
  parallel::set_thread_count(n);
}

ThreadScope::~ThreadScope() { parallel::set_thread_count(saved_); }

Matrix with_threads(std::size_t n, const std::function<Matrix()>& fn) {
  ThreadScope scope(n);
  return fn();
}

BackendScope::BackendScope(const std::string& name)
    : saved_(core::current_backend_selection()) {
  core::set_backend(name);
}

BackendScope::~BackendScope() {
  if (saved_) {
    core::set_backend(saved_->name());
  } else {
    core::reset_backend_selection();
  }
}

Matrix with_backend(const std::string& name,
                    const std::function<Matrix()>& fn) {
  BackendScope scope(name);
  return fn();
}

Matrix as_row(std::span<const float> v) {
  Matrix m(1, v.size());
  if (!v.empty()) std::memcpy(m.data(), v.data(), v.size() * sizeof(float));
  return m;
}

}  // namespace enw::testkit
