#include "dsp/correlation.h"

#include <algorithm>
#include <cmath>

#include "dsp/vec_ops.h"

namespace backfi::dsp {

cvec cross_correlate(std::span<const cplx> signal, std::span<const cplx> reference) {
  if (reference.empty() || signal.size() < reference.size()) return {};
  const std::size_t n_out = signal.size() - reference.size() + 1;
  cvec out(n_out);
  for (std::size_t n = 0; n < n_out; ++n) {
    cplx acc{0.0, 0.0};
    for (std::size_t k = 0; k < reference.size(); ++k)
      acc += signal[n + k] * std::conj(reference[k]);
    out[n] = acc;
  }
  return out;
}

rvec normalized_correlation(std::span<const cplx> signal,
                            std::span<const cplx> reference) {
  if (reference.empty() || signal.size() < reference.size()) return {};
  const std::size_t m = reference.size();
  const std::size_t n_out = signal.size() - m + 1;
  const double ref_norm = std::sqrt(energy(reference));
  rvec out(n_out, 0.0);
  if (ref_norm <= 0.0) return out;
  const cvec corr = cross_correlate(signal, reference);
  // Sliding window energy of the signal, updated incrementally with a
  // periodic exact rebuild so rounding error cannot accumulate over long
  // captures (see normalized_correlation_refresh_interval).
  double window_energy = energy(signal.subspan(0, m));
  for (std::size_t n = 0; n < n_out; ++n) {
    const double sig_norm = std::sqrt(std::max(window_energy, 0.0));
    out[n] = sig_norm > 0.0 ? std::abs(corr[n]) / (sig_norm * ref_norm) : 0.0;
    if (n + 1 < n_out) {
      if ((n + 1) % normalized_correlation_refresh_interval == 0) {
        window_energy = energy(signal.subspan(n + 1, m));
      } else {
        window_energy -= std::norm(signal[n]);
        window_energy += std::norm(signal[n + m]);
      }
    }
  }
  return out;
}

rvec delayed_autocorrelation(std::span<const cplx> signal, std::size_t lag) {
  if (signal.size() < 2 * lag || lag == 0) return {};
  const std::size_t n_out = signal.size() - 2 * lag + 1;
  rvec out(n_out);
  for (std::size_t n = 0; n < n_out; ++n) {
    cplx acc{0.0, 0.0};
    double power = 0.0;
    for (std::size_t k = 0; k < lag; ++k) {
      acc += signal[n + k] * std::conj(signal[n + k + lag]);
      power += std::norm(signal[n + k + lag]);
    }
    out[n] = power > 0.0 ? std::abs(acc) / power : 0.0;
  }
  return out;
}

}  // namespace backfi::dsp
