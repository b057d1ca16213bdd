// AnalogMatrix — a simulated resistive crossbar array (Sec. II-A, Fig. 1).
//
// Stores a weight matrix as per-crosspoint device states and supports the
// three RPU primitives:
//
//   forward  (VMM along rows)       — one "crossbar operation"
//   backward (VMM along columns)    — transpose read, same array
//   update   (parallel rank-1)      — stochastic pulse-train coincidences
//
// Analog imperfections modeled: input DAC / output ADC quantization, output
// read noise (thermal + device conductance fluctuations, scaling with the
// read vector magnitude), a first-order IR-drop attenuation that grows
// toward the far corner of the array, device-to-device variability, stuck
// devices, cycle-to-cycle update noise, state-dependent (soft-bounds)
// asymmetric steps, and saturating pulse-train probabilities.
//
// The stochastic update follows Gokmen & Vlasov: during one update cycle,
// BL pulse slots are issued; row i fires with probability amp*|d_i| and
// column j with probability amp*|x_j| where amp = sqrt(lr / (BL * dw_avg)).
// A coincidence steps the device once in the direction -sign(d_i * x_j), so
// E[dW] = -lr * d x^T exactly when no probability saturates.
#pragma once

#include <vector>

#include "analog/device.h"
#include "core/rng.h"
#include "tensor/matrix.h"

namespace enw::analog {

struct AnalogMatrixConfig {
  DevicePreset device = ideal_device();

  /// Relative read noise: each analog output picks up noise with stddev
  /// read_noise_std * ||x||_2 (a per-column-current noise aggregated over
  /// the wire). 0 disables.
  double read_noise_std = 0.0;

  /// Input DAC resolution in bits (0 = ideal). Inputs are scaled by their
  /// max-abs ("noise management") before conversion, so the DAC range is
  /// always fully used.
  int dac_bits = 0;

  /// Output ADC resolution in bits (0 = ideal). The ADC clips at
  /// adc_range * (max-abs input scale).
  int adc_bits = 0;
  double adc_range = 16.0;

  /// First-order IR-drop: the contribution of cell (i, j) is attenuated by
  /// (1 - ir_drop * (i/rows + j/cols) / 2). 0 disables.
  double ir_drop = 0.0;

  /// Pulse-train length for one stochastic update cycle.
  int update_bl = 31;

  std::uint64_t seed = 99;
};

class AnalogMatrix {
 public:
  AnalogMatrix(std::size_t rows, std::size_t cols, const AnalogMatrixConfig& config);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const AnalogMatrixConfig& config() const { return config_; }

  /// y = W x with analog non-idealities (row-wise read).
  void forward(std::span<const float> x, std::span<float> y);

  /// Batched readout: y.row(s) = W x.row(s) for every sample row of x, with
  /// the same non-idealities. Noise is drawn once per (sample, row) in
  /// sample-major row order — the exact order a sequential per-sample
  /// readout consumes the RNG — so the stream (and therefore the result) is
  /// bitwise-identical to looping forward(), while the accumulation work for
  /// all samples lands in one parallel region.
  void forward_batch(const Matrix& x, Matrix& y);

  /// dx = W^T dy with analog non-idealities (column-wise read).
  void backward(std::span<const float> dy, std::span<float> dx);

  /// Stochastic pulsed rank-1 update implementing W -= lr * d x^T in
  /// expectation. d has rows() entries, x has cols().
  void pulsed_update(std::span<const float> x, std::span<const float> d, float lr);

  /// Apply exactly n single-device pulses to element (r, c); n>0 potentiates.
  /// Used by deterministic update schemes (mixed precision) and calibration.
  void pulse_element(std::size_t r, std::size_t c, int n);

  /// Noise-free snapshot of the logical weights (for tests / monitoring;
  /// corresponds to an ideal, slow read of the array).
  Matrix weights_snapshot() const;

  /// Closed-loop (write-verify) programming toward the target matrix;
  /// `iterations` verify/correct rounds. Values are clipped to what each
  /// device can reach: its [w_min, w_max] range, short of its soft bounds
  /// (w <= 1 / slope_up, w >= -1 / slope_down). Stuck devices retain their
  /// state. Throws std::invalid_argument, before that cell fires a pulse,
  /// when a cell's pass would need more than INT_MAX pulses (a step far too
  /// small for the distance to its goal).
  void program(const Matrix& target, int iterations = 10);

  /// Expected weight change of a single up (or down) pulse at the current
  /// state of element (r, c) — used by calibration routines.
  float expected_step(std::size_t r, std::size_t c, bool up) const;

  const DeviceInstance& device(std::size_t r, std::size_t c) const;
  float state(std::size_t r, std::size_t c) const;
  void set_state(std::size_t r, std::size_t c, float w);

  /// Fault-injection hook (testkit): freeze crosspoint (r, c) at `value`.
  /// The device is marked stuck, so every subsequent pulse and program() pass
  /// leaves it untouched — a persistent stuck-at-conductance yield defect.
  /// `value` is deliberately NOT clipped to the device bounds: defects such
  /// as shorted cells read far outside the logical weight range.
  void inject_stuck(std::size_t r, std::size_t c, float value);

  Rng& rng() { return rng_; }

 private:
  float attenuation(std::size_t r, std::size_t c) const;

  std::size_t rows_;
  std::size_t cols_;
  AnalogMatrixConfig config_;
  Matrix w_;
  std::vector<DeviceInstance> devices_;
  Rng rng_;
  // Scratch buffers reused across update cycles.
  std::vector<std::uint32_t> fire_rows_;
  std::vector<std::uint32_t> fire_cols_;
};

}  // namespace enw::analog
