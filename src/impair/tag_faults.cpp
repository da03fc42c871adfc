#include "impair/tag_faults.h"

#include <algorithm>
#include <cmath>

#include "dsp/math_util.h"

namespace backfi::impair {

void apply_oscillator_jitter(const oscillator_jitter_config& config,
                             std::span<cplx> reflection,
                             std::size_t active_begin, std::size_t active_end,
                             dsp::rng& gen) {
  active_end = std::min(active_end, reflection.size());
  if (active_begin >= active_end) return;
  const std::size_t n_active = active_end - active_begin;

  if (config.clock_ppm != 0.0) {
    // The tag clocks its schedule from its own oscillator: sample n of the
    // reader's grid sees the tag's waveform at n / (1 + ppm) — a stretch
    // (nearest-neighbour; the reflection is piecewise constant).
    const double ratio = 1.0 / (1.0 + config.clock_ppm * 1e-6);
    cvec src(reflection.begin() + static_cast<std::ptrdiff_t>(active_begin),
             reflection.begin() + static_cast<std::ptrdiff_t>(active_end));
    for (std::size_t n = 0; n < n_active; ++n) {
      const double pos = static_cast<double>(n) * ratio;
      const std::size_t k =
          std::min(n_active - 1, static_cast<std::size_t>(pos + 0.5));
      reflection[active_begin + n] = src[k];
    }
  }

  if (config.phase_jitter_rad > 0.0) {
    // Batched Gaussian increments and a block sincos, as in
    // apply_phase_noise; bit-identical to the per-sample scalar walk.
    constexpr std::size_t kBlock = 512;
    double g[kBlock];
    double phase = 0.0;
    for (std::size_t n = active_begin; n < active_end; n += kBlock) {
      const std::size_t m = std::min(kBlock, active_end - n);
      gen.fill_gaussian(std::span<double>(g, m));
      for (std::size_t k = 0; k < m; ++k) {
        phase += config.phase_jitter_rad * g[k];
        g[k] = phase;
      }
      dsp::rotate_by_phases(reflection.subspan(n, m),
                            std::span<const double>(g, m));
    }
  }
}

bool apply_brownout(const brownout_config& config, std::span<cplx> reflection,
                    std::size_t active_begin, std::size_t active_end,
                    dsp::rng& gen) {
  active_end = std::min(active_end, reflection.size());
  if (active_begin >= active_end) return false;
  if (!gen.bernoulli(config.probability)) return false;

  // Earliest onset as a fraction of the active region (the harvester
  // usually survives the preamble; payload is where it dies).
  constexpr double earliest_frac = 0.3;
  const std::size_t n_active = active_end - active_begin;
  const std::size_t earliest =
      static_cast<std::size_t>(earliest_frac * static_cast<double>(n_active));
  const std::size_t onset =
      active_begin + earliest +
      (earliest < n_active ? gen.uniform_int(n_active - earliest) : 0);
  const std::size_t dropout = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.duration_us * sample_rate_hz / 1e6));
  const std::size_t end = std::min(active_end, onset + dropout);
  std::fill(reflection.begin() + static_cast<std::ptrdiff_t>(onset),
            reflection.begin() + static_cast<std::ptrdiff_t>(end),
            cplx{0.0, 0.0});
  return true;
}

}  // namespace backfi::impair
