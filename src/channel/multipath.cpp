#include "channel/multipath.h"

#include <cmath>
#include <stdexcept>

#include "dsp/fir.h"
#include "dsp/math_util.h"

namespace backfi::channel {

cvec draw_multipath(const multipath_profile& profile, dsp::rng& gen) {
  if (profile.n_taps == 0)
    throw std::invalid_argument("channel::draw_multipath: n_taps must be >= 1");
  const double tap_spacing_ns = 1e9 * sample_period_s;
  const double decay = profile.delay_spread_ns > 0.0
                           ? std::exp(-tap_spacing_ns / profile.delay_spread_ns)
                           : 0.0;

  // Exponential power delay profile weights, normalized to sum 1.
  std::vector<double> pdp(profile.n_taps);
  double pdp_sum = 0.0;
  for (std::size_t k = 0; k < profile.n_taps; ++k) {
    pdp[k] = std::pow(decay, static_cast<double>(k));
    pdp_sum += pdp[k];
  }
  for (double& w : pdp) w /= pdp_sum;

  const double k_lin = dsp::from_db(profile.rician_k_db);
  cvec taps(profile.n_taps);
  for (std::size_t k = 0; k < profile.n_taps; ++k) {
    if (k == 0) {
      // Rician: deterministic LoS component plus scattered part.
      const double los_power = pdp[0] * k_lin / (k_lin + 1.0);
      const double nlos_power = pdp[0] / (k_lin + 1.0);
      const double los_phase = gen.uniform(0.0, two_pi);
      taps[0] = std::sqrt(los_power) * dsp::phasor(los_phase) +
                std::sqrt(nlos_power) * gen.complex_gaussian();
    } else {
      taps[k] = std::sqrt(pdp[k]) * gen.complex_gaussian();
    }
  }
  const double gain = dsp::db_to_amplitude(profile.total_gain_db);
  for (cplx& t : taps) t *= gain;
  return taps;
}

cvec apply_channel(std::span<const cplx> x, std::span<const cplx> taps) {
  return dsp::convolve_same(x, taps);
}

void apply_channel_into(std::span<const cplx> x, std::span<const cplx> taps,
                        cvec& out) {
  dsp::convolve_same_into(x, taps, out);
}

double tap_power(std::span<const cplx> taps) {
  double acc = 0.0;
  for (const cplx& t : taps) acc += std::norm(t);
  return acc;
}

}  // namespace backfi::channel
