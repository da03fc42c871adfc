#include "impair/canceller_faults.h"

#include <algorithm>
#include <cmath>

#include "dsp/fir.h"
#include "dsp/vec_ops.h"

namespace backfi::impair {

namespace {

/// Taps of a drifted or failed stage's leakage channel: its delay spread.
constexpr std::size_t leakage_taps = 2;

/// Random unit-power leakage channel of `leakage_taps` taps.
cvec draw_leakage_channel(dsp::rng& gen) {
  cvec h(leakage_taps);
  double energy = 0.0;
  for (cplx& t : h) {
    t = gen.complex_gaussian();
    energy += std::norm(t);
  }
  const double scale = energy > 0.0 ? 1.0 / std::sqrt(energy) : 1.0;
  for (cplx& t : h) t *= scale;
  return h;
}

}  // namespace

void apply_canceller_drift(const canceller_drift_config& config,
                           std::span<const cplx> tx, std::span<cplx> cleaned,
                           std::size_t adapt_end, dsp::rng& gen) {
  if (config.final_leakage_db <= -200.0) return;
  const std::size_t n = std::min(tx.size(), cleaned.size());
  if (adapt_end >= n) return;
  const double tx_power = dsp::mean_power(tx.first(n));
  if (tx_power <= 0.0) return;

  const cvec dh = draw_leakage_channel(gen);
  const cvec leakage = dsp::convolve_same(tx.first(n), dh);
  const double final_amp =
      std::sqrt(tx_power * std::pow(10.0, config.final_leakage_db / 10.0));
  const double ramp = static_cast<double>(n - adapt_end);
  for (std::size_t i = adapt_end; i < n; ++i) {
    // Power ramps quadratically: amplitude grows linearly from adapt_end.
    const double frac = static_cast<double>(i - adapt_end) / ramp;
    cleaned[i] += final_amp * frac * leakage[i];
  }
}

void apply_canceller_stage_failure(
    const canceller_stage_failure_config& config, std::span<const cplx> tx,
    std::span<cplx> cleaned, dsp::rng& gen) {
  if (config.leakage_db <= -200.0) return;
  const std::size_t n = std::min(tx.size(), cleaned.size());
  const std::size_t at = static_cast<std::size_t>(
      std::clamp(config.at_frac, 0.0, 1.0) * static_cast<double>(n));
  if (at >= n) return;
  const double tx_power = dsp::mean_power(tx.first(n));
  if (tx_power <= 0.0) return;

  const cvec dh = draw_leakage_channel(gen);
  const cvec leakage = dsp::convolve_same(tx.first(n), dh);
  const double amp =
      std::sqrt(tx_power * std::pow(10.0, config.leakage_db / 10.0));
  for (std::size_t i = at; i < n; ++i) cleaned[i] += amp * leakage[i];
}

}  // namespace backfi::impair
