#include "analog/analog_matrix.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/parallel.h"
#include "tensor/ops.h"

namespace enw::analog {

namespace {

/// Symmetric mid-rise quantization of v onto `bits` bits over [-range, range].
float quantize_signed(float v, int bits, float range) {
  if (bits <= 0 || range <= 0.0f) return v;
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  const float clamped = std::clamp(v, -range, range);
  return std::nearbyint(clamped / range * qmax) * range / qmax;
}

}  // namespace

AnalogMatrix::AnalogMatrix(std::size_t rows, std::size_t cols,
                           const AnalogMatrixConfig& config)
    : rows_(rows), cols_(cols), config_(config), w_(rows, cols), rng_(config.seed) {
  ENW_CHECK(rows > 0 && cols > 0);
  ENW_CHECK_MSG(config.update_bl > 0, "pulse train length must be positive");
  devices_.reserve(rows * cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    devices_.push_back(sample_device(config_.device, rng_));
  }
  // Devices start at a random point of their range (as fabricated), stuck
  // devices at an arbitrary frozen state.
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const DeviceInstance& d = devices_[r * cols_ + c];
      const float mid = 0.5f * (d.w_min + d.w_max);
      const float spread = 0.05f * (d.w_max - d.w_min);
      w_(r, c) = mid + static_cast<float>(rng_.normal(0.0, spread));
    }
  }
}

float AnalogMatrix::attenuation(std::size_t r, std::size_t c) const {
  if (config_.ir_drop <= 0.0) return 1.0f;
  const double fr = static_cast<double>(r) / static_cast<double>(rows_);
  const double fc = static_cast<double>(c) / static_cast<double>(cols_);
  return static_cast<float>(1.0 - config_.ir_drop * 0.5 * (fr + fc));
}

void AnalogMatrix::forward(std::span<const float> x, std::span<float> y) {
  ENW_CHECK(x.size() == cols_ && y.size() == rows_);
  // Noise management: scale inputs so the DAC range [-1, 1] is fully used.
  const float x_scale = std::max(max_abs(x), 1e-12f);
  const float x_norm = l2_norm(x);
  // The DAC code for column c is identical for every row — hoist it out of
  // the row loop instead of re-quantizing rows_ times.
  std::vector<float> xin(cols_);
  for (std::size_t c = 0; c < cols_; ++c) {
    xin[c] = quantize_signed(x[c] / x_scale, config_.dac_bits, 1.0f);
  }
  // Read-noise draws advance the shared RNG; draw them up front in row order
  // so the stream matches a fully sequential readout, then the accumulation
  // itself can run on any thread without touching the RNG.
  std::vector<float> noise;
  if (config_.read_noise_std > 0.0) {
    noise.resize(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      noise[r] =
          static_cast<float>(config_.read_noise_std * rng_.normal()) * x_norm / x_scale;
    }
  }
  const float adc_range = static_cast<float>(config_.adc_range);
  const bool ideal_wires = config_.ir_drop <= 0.0;
  const std::size_t grain = std::max<std::size_t>(8, 16384 / std::max<std::size_t>(1, cols_));
  parallel::parallel_for(0, rows_, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      float acc = 0.0f;
      const float* row = w_.data() + r * cols_;
      if (ideal_wires) {
        // attenuation == 1.0f exactly; multiplying by it is the identity.
        for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * xin[c];
      } else {
        for (std::size_t c = 0; c < cols_; ++c) {
          acc += row[c] * attenuation(r, c) * xin[c];
        }
      }
      if (!noise.empty()) acc += noise[r];
      acc = quantize_signed(acc, config_.adc_bits, adc_range);
      y[r] = acc * x_scale;
    }
  });
}

void AnalogMatrix::forward_batch(const Matrix& x, Matrix& y) {
  ENW_CHECK(x.cols() == cols_ && y.rows() == x.rows() && y.cols() == rows_);
  const std::size_t batch = x.rows();
  if (batch == 0) return;
  // Per-sample noise management + DAC codes, hoisted for the whole batch.
  Matrix xin(batch, cols_);
  Vector xscale(batch);
  for (std::size_t s = 0; s < batch; ++s) {
    const auto row = x.row(s);
    xscale[s] = std::max(max_abs(row), 1e-12f);
    float* code = xin.data() + s * cols_;
    for (std::size_t c = 0; c < cols_; ++c) {
      code[c] = quantize_signed(row[c] / xscale[s], config_.dac_bits, 1.0f);
    }
  }
  // One noise draw per (sample, row), sample-major — the same RNG stream a
  // sequential per-sample readout would consume.
  Matrix noise;
  if (config_.read_noise_std > 0.0) {
    noise = Matrix(batch, rows_);
    for (std::size_t s = 0; s < batch; ++s) {
      const float x_norm = l2_norm(x.row(s));
      for (std::size_t r = 0; r < rows_; ++r) {
        noise(s, r) = static_cast<float>(config_.read_noise_std * rng_.normal()) *
                      x_norm / xscale[s];
      }
    }
  }
  const float adc_range = static_cast<float>(config_.adc_range);
  const bool ideal_wires = config_.ir_drop <= 0.0;
  // Flatten (sample, row) into one index space so the whole batch fills the
  // pool in a single parallel region; the partition is a pure shape function.
  const std::size_t grain = std::max<std::size_t>(8, 16384 / std::max<std::size_t>(1, cols_));
  parallel::parallel_for(0, batch * rows_, grain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const std::size_t s = i / rows_;
      const std::size_t r = i % rows_;
      const float* code = xin.data() + s * cols_;
      const float* row = w_.data() + r * cols_;
      float acc = 0.0f;
      if (ideal_wires) {
        for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * code[c];
      } else {
        for (std::size_t c = 0; c < cols_; ++c) {
          acc += row[c] * attenuation(r, c) * code[c];
        }
      }
      if (!noise.empty()) acc += noise(s, r);
      acc = quantize_signed(acc, config_.adc_bits, adc_range);
      y(s, r) = acc * xscale[s];
    }
  });
}

void AnalogMatrix::backward(std::span<const float> dy, std::span<float> dx) {
  ENW_CHECK(dy.size() == rows_ && dx.size() == cols_);
  const float d_scale = std::max(max_abs(dy), 1e-12f);
  const float d_norm = l2_norm(dy);
  std::vector<float> din(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    din[r] = quantize_signed(dy[r] / d_scale, config_.dac_bits, 1.0f);
  }
  // Column-chunked transposed readout: each chunk owns a disjoint slice of
  // dx and accumulates over rows in fixed order; dx[c]'s summation order is
  // independent of the chunk layout, so every thread count (including the
  // full-width single-thread branch) produces identical bits. The dr == 0
  // skip is exact here: din is a quantized DAC code and the device states
  // are clamped finite.
  const bool ideal_wires = config_.ir_drop <= 0.0;
  const auto accumulate = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) dx[c] = 0.0f;
    for (std::size_t r = 0; r < rows_; ++r) {
      const float* row = w_.data() + r * cols_;
      const float dr = din[r];
      if (dr == 0.0f) continue;
      if (ideal_wires) {
        for (std::size_t c = c0; c < c1; ++c) dx[c] += row[c] * dr;
      } else {
        for (std::size_t c = c0; c < c1; ++c) {
          dx[c] += row[c] * attenuation(r, c) * dr;
        }
      }
    }
  };
  if (parallel::thread_count() <= 1) {
    accumulate(0, cols_);
  } else {
    const std::size_t grain =
        std::max<std::size_t>(256, 16384 / std::max<std::size_t>(1, rows_));
    parallel::parallel_for(0, cols_, grain, accumulate);
  }
  for (std::size_t c = 0; c < cols_; ++c) {
    float acc = dx[c];
    if (config_.read_noise_std > 0.0) {
      acc += static_cast<float>(config_.read_noise_std * rng_.normal()) * d_norm / d_scale;
    }
    acc = quantize_signed(acc, config_.adc_bits, static_cast<float>(config_.adc_range));
    dx[c] = acc * d_scale;
  }
}

void AnalogMatrix::pulsed_update(std::span<const float> x, std::span<const float> d,
                                 float lr) {
  ENW_CHECK(x.size() == cols_ && d.size() == rows_);
  ENW_CHECK_MSG(lr >= 0.0f, "learning rate must be non-negative");
  if (lr == 0.0f) return;
  const int bl = config_.update_bl;
  const double dw_avg = 0.5 * (config_.device.dw_up + config_.device.dw_down);
  ENW_CHECK_MSG(dw_avg > 0.0, "device preset has zero mean step");
  const double amp = std::sqrt(static_cast<double>(lr) / (bl * dw_avg));

  for (int pulse = 0; pulse < bl; ++pulse) {
    fire_rows_.clear();
    fire_cols_.clear();
    for (std::size_t r = 0; r < rows_; ++r) {
      const double p = std::min(amp * std::abs(d[r]), 1.0);
      if (p > 0.0 && rng_.bernoulli(p)) fire_rows_.push_back(static_cast<std::uint32_t>(r));
    }
    if (fire_rows_.empty()) continue;
    for (std::size_t c = 0; c < cols_; ++c) {
      const double p = std::min(amp * std::abs(x[c]), 1.0);
      if (p > 0.0 && rng_.bernoulli(p)) fire_cols_.push_back(static_cast<std::uint32_t>(c));
    }
    for (const auto r : fire_rows_) {
      for (const auto c : fire_cols_) {
        // SGD descends: w -= lr * d * x, so the pulse direction opposes
        // the sign of the product.
        const bool up = (d[r] * x[c]) < 0.0f;
        const std::size_t idx = static_cast<std::size_t>(r) * cols_ + c;
        w_(r, c) = apply_pulse(devices_[idx], w_(r, c), up, config_.device.sigma_ctoc,
                               rng_);
      }
    }
  }
}

void AnalogMatrix::pulse_element(std::size_t r, std::size_t c, int n) {
  ENW_CHECK(r < rows_ && c < cols_);
  const bool up = n > 0;
  const std::size_t idx = r * cols_ + c;
  for (int i = 0; i < std::abs(n); ++i) {
    w_(r, c) =
        apply_pulse(devices_[idx], w_(r, c), up, config_.device.sigma_ctoc, rng_);
  }
}

Matrix AnalogMatrix::weights_snapshot() const { return w_; }

void AnalogMatrix::program(const Matrix& target, int iterations) {
  ENW_CHECK_MSG(target.rows() == rows_ && target.cols() == cols_,
                "program target shape mismatch");
  ENW_CHECK(iterations > 0);
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        const DeviceInstance& d = devices_[r * cols_ + c];
        if (d.stuck) continue;
        // Clamp the goal into what the device can reach: its hard range, and
        // short of a soft bound, where the step vanishes (1 - slope_up * w
        // -> 0) and err / step would grow without limit.
        float lo = d.w_min;
        float hi = d.w_max;
        if (d.slope_up > 0.0f) hi = std::min(hi, 1.0f / d.slope_up);
        if (d.slope_down > 0.0f) lo = std::max(lo, -1.0f / d.slope_down);
        const float goal = std::clamp(target(r, c), lo, std::max(lo, hi));
        const float err = goal - w_(r, c);
        const float step = expected_step(r, c, err > 0.0f);
        if (std::abs(step) < 1e-12f) continue;
        const int n = static_cast<int>(err / step);
        if (n != 0) pulse_element(r, c, err > 0.0f ? std::abs(n) : -std::abs(n));
      }
    }
  }
}

float AnalogMatrix::expected_step(std::size_t r, std::size_t c, bool up) const {
  ENW_CHECK(r < rows_ && c < cols_);
  const DeviceInstance& d = devices_[r * cols_ + c];
  const float w = w_(r, c);
  if (up) return d.dw_up * (1.0f - d.slope_up * w);
  return d.dw_down * (1.0f + d.slope_down * w);
}

const DeviceInstance& AnalogMatrix::device(std::size_t r, std::size_t c) const {
  ENW_CHECK(r < rows_ && c < cols_);
  return devices_[r * cols_ + c];
}

float AnalogMatrix::state(std::size_t r, std::size_t c) const {
  ENW_CHECK(r < rows_ && c < cols_);
  return w_(r, c);
}

void AnalogMatrix::inject_stuck(std::size_t r, std::size_t c, float value) {
  ENW_CHECK(r < rows_ && c < cols_);
  devices_[r * cols_ + c].stuck = true;
  w_(r, c) = value;  // intentionally unclipped: shorts read out of range
}

void AnalogMatrix::set_state(std::size_t r, std::size_t c, float w) {
  ENW_CHECK(r < rows_ && c < cols_);
  const DeviceInstance& d = devices_[r * cols_ + c];
  w_(r, c) = std::clamp(w, d.w_min, d.w_max);
}

}  // namespace enw::analog
