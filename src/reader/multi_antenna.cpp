#include "reader/multi_antenna.h"

#include <cmath>

#include "dsp/math_util.h"

namespace backfi::reader {

multi_antenna_decoder::multi_antenna_decoder(const tag::tag_config& tag_config,
                                             const decoder_config& config)
    : tag_config_(tag_config), config_(config) {}

multi_antenna_result multi_antenna_decoder::decode(
    std::span<const cplx> x, std::span<const antenna_observation> antennas,
    std::size_t nominal_origin, std::size_t payload_bits) const {
  multi_antenna_result result;
  const backfi_decoder single(tag_config_, config_);

  // Per-antenna channel estimation, timing and symbol-level MRC, through
  // one scratch reused across the antennas.
  decoder_scratch scratch;
  for (const auto& antenna : antennas)
    result.per_antenna.push_back(single.decode(
        x, antenna.cleaned, nominal_origin, payload_bits, &scratch));

  // Spatial MRC: weight each antenna's per-symbol estimate by its linear
  // post-MRC SNR (the optimal combiner for unit-signal statistics with
  // independent noise).
  result.weights.assign(antennas.size(), 0.0);
  std::size_t n_symbols = 0;
  double weight_sum = 0.0;
  for (std::size_t a = 0; a < antennas.size(); ++a) {
    const auto& r = result.per_antenna[a];
    if (!r.sync_found) continue;
    result.weights[a] = dsp::from_db(r.post_mrc_snr_db);
    weight_sum += result.weights[a];
    n_symbols = std::max(n_symbols, r.symbol_estimates.size());
  }
  if (weight_sum <= 0.0 || n_symbols == 0) {
    // No antenna synchronized: report the (empty) combined failure.
    if (!result.per_antenna.empty()) result.combined = result.per_antenna[0];
    return result;
  }
  for (double& w : result.weights) w /= weight_sum;

  cvec combined(n_symbols, cplx{0.0, 0.0});
  for (std::size_t a = 0; a < antennas.size(); ++a) {
    if (result.weights[a] <= 0.0) continue;
    const auto& symbols = result.per_antenna[a].symbol_estimates;
    for (std::size_t s = 0; s < symbols.size(); ++s)
      combined[s] += result.weights[a] * symbols[s];
  }

  // Effective noise variance of the weighted sum: with weights w_a = g_a/G
  // (g_a the linear SNRs, G their sum), var = sum w_a^2 / g_a = 1/G.
  const double combined_var = 1.0 / weight_sum;

  result.combined = single.decode_from_symbols(combined, combined_var,
                                               payload_bits, &scratch);
  result.combined.sync_found = true;
  result.combined.post_mrc_snr_db = dsp::to_db(weight_sum);
  result.combined.symbol_estimates = std::move(combined);
  return result;
}

}  // namespace backfi::reader
