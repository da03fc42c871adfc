#include "impair/rf_impairments.h"

#include <algorithm>
#include <cmath>

#include "dsp/math_util.h"

namespace backfi::impair {

void apply_cfo(const cfo_config& config, std::span<cplx> x,
               std::size_t start_sample) {
  if (config.offset_hz == 0.0 && config.drift_hz_per_s == 0.0) return;
  constexpr std::size_t kBlock = 512;
  double phase[kBlock];
  for (std::size_t i = 0; i < x.size(); i += kBlock) {
    const std::size_t m = std::min(kBlock, x.size() - i);
    for (std::size_t k = 0; k < m; ++k) {
      const double t =
          static_cast<double>(start_sample + i + k) * sample_period_s;
      // Instantaneous frequency f0 + d*t integrates to f0*t + d*t^2/2.
      phase[k] = two_pi *
                 (config.offset_hz * t + 0.5 * config.drift_hz_per_s * t * t);
    }
    dsp::rotate_by_phases(x.subspan(i, m), std::span<const double>(phase, m));
  }
}

void apply_phase_noise(const phase_noise_config& config, std::span<cplx> x,
                       dsp::rng& gen) {
  if (config.linewidth_hz <= 0.0) return;
  const double sigma =
      std::sqrt(two_pi * config.linewidth_hz * sample_period_s);
  // Batched Gaussian increments (one block fill instead of a draw per
  // sample); the phase walk itself stays the sequential scalar recurrence,
  // written over the increments and rotated by one block sincos. Values
  // are bit-identical to the per-sample scalar loop.
  constexpr std::size_t kBlock = 512;
  double g[kBlock];
  double phase = 0.0;
  for (std::size_t i = 0; i < x.size(); i += kBlock) {
    const std::size_t m = std::min(kBlock, x.size() - i);
    gen.fill_gaussian(std::span<double>(g, m));
    for (std::size_t k = 0; k < m; ++k) {
      phase += sigma * g[k];
      g[k] = phase;
    }
    dsp::rotate_by_phases(x.subspan(i, m), std::span<const double>(g, m));
  }
}

void apply_iq_imbalance(const iq_imbalance_config& config, std::span<cplx> x) {
  const double g = std::pow(10.0, config.gain_mismatch_db / 20.0);
  const double phi = config.phase_skew_deg * pi / 180.0;
  const bool skewed = config.gain_mismatch_db != 0.0 || phi != 0.0;
  cplx dc{0.0, 0.0};
  if (config.dc_over_rms != 0.0 && !x.empty()) {
    double power = 0.0;
    for (const cplx& v : x) power += std::norm(v);
    const double rms = std::sqrt(power / static_cast<double>(x.size()));
    const double scale = config.dc_over_rms * rms / std::sqrt(2.0);
    dc += cplx{scale, scale};
  }
  for (cplx& v : x) {
    if (skewed) {
      // Q rail gains g and leaks sin(phi) of the I rail (quadrature error).
      const double i = v.real();
      const double q = g * (v.imag() * std::cos(phi) + i * std::sin(phi));
      v = {i, q};
    }
    v += dc;
  }
}

double lo_drift_state::step(const lo_drift_config& config, dsp::rng& gen) {
  if (config.enabled()) phase_rad += config.step_std_rad * gen.gaussian();
  return phase_rad;
}

void apply_constant_phase(std::span<cplx> x, double phase_rad) {
  if (phase_rad == 0.0) return;
  double sn, cs;
  dsp::sin_cos(phase_rad, sn, cs);
  const cplx rot{cs, sn};
  for (cplx& v : x) v *= rot;
}

}  // namespace backfi::impair
