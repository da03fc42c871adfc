#include "impair/burst_faults.h"

#include <algorithm>
#include <cmath>

#include "dsp/vec_ops.h"

namespace backfi::impair {

namespace {

constexpr double samples_per_ms = sample_rate_hz / 1e3;

/// Walk Poisson arrivals over the span and hand each burst's sample range
/// to `emit`. Burst lengths are exponential with the given mean.
template <typename Emit>
void for_each_burst(double bursts_per_ms, double mean_duration_us,
                    std::size_t span_size, dsp::rng& gen, Emit emit) {
  if (bursts_per_ms <= 0.0 || span_size == 0) return;
  const double mean_gap = samples_per_ms / bursts_per_ms;
  double cursor = gen.exponential(mean_gap);
  while (cursor < static_cast<double>(span_size)) {
    const std::size_t begin = static_cast<std::size_t>(cursor);
    const double len = std::max(1.0, gen.exponential(mean_duration_us) *
                                         samples_per_us);
    const std::size_t end =
        std::min(span_size, begin + static_cast<std::size_t>(len));
    emit(begin, end);
    cursor = static_cast<double>(end) + gen.exponential(mean_gap);
  }
}

}  // namespace

void apply_saturation_bursts(const saturation_burst_config& config,
                             std::span<cplx> x, dsp::rng& gen) {
  const double rms = dsp::rms(x);
  if (rms <= 0.0) return;
  const double amp = config.amplitude_over_rms * rms;
  // Fused batch add over each burst range: same draws, same per-component
  // multiply/add arithmetic as the per-sample scalar loop.
  for_each_burst(config.bursts_per_ms, config.mean_duration_us, x.size(), gen,
                 [&](std::size_t begin, std::size_t end) {
                   gen.add_scaled_complex_gaussian(
                       x.subspan(begin, end - begin), amp);
                 });
}

void apply_interferer(const interferer_config& config, std::span<cplx> x,
                      dsp::rng& gen) {
  const double mean = dsp::mean_power(x);
  if (mean <= 0.0) return;
  const double amp = std::sqrt(
      mean * std::pow(10.0, config.power_db_over_signal / 10.0));
  for_each_burst(config.bursts_per_ms, config.mean_duration_us, x.size(), gen,
                 [&](std::size_t begin, std::size_t end) {
                   gen.add_scaled_complex_gaussian(
                       x.subspan(begin, end - begin), amp);
                 });
}

}  // namespace backfi::impair
