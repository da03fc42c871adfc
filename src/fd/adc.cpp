#include "fd/adc.h"

#include <algorithm>
#include <cmath>

#include "dsp/vec_ops.h"

namespace backfi::fd {

void quantize_range_saturation(const cplx* x, std::size_t begin,
                               std::size_t end, const adc_config& config,
                               cplx* out, unsigned& clipped_any) {
  const double levels = static_cast<double>(1ULL << config.bits);
  const double full_scale = config.full_scale;
  const double step = 2.0 * full_scale / levels;
  const double* __restrict in = reinterpret_cast<const double*>(x);
  double* __restrict o = reinterpret_cast<double*>(out);
  // Quantize the I/Q axes as one flat double array (std::complex<double> is
  // layout-compatible with double[2]): per-axis ops are independent, so the
  // flat loop performs the identical clamp/divide/round/scale sequence per
  // axis and vectorizes where the complex-element form did not. The divide
  // by step must stay a divide — multiplying by a reciprocal rounds
  // differently. The saturation test is folded in as a branchless flag
  // reduction: the clip decision needs the same compares anyway, so the
  // input is read once.
  for (std::size_t i = 2 * begin; i < 2 * end; ++i) {
    const double v = in[i];
    clipped_any |= static_cast<unsigned>(v < -full_scale) |
                   static_cast<unsigned>(v > full_scale);
    const double clipped = std::clamp(v, -full_scale, full_scale);
    o[i] = std::round(clipped / step) * step;
  }
}

void saturation_scan_range(const cplx* x, std::size_t begin, std::size_t end,
                           const adc_config& config, unsigned& clipped_any) {
  const double full_scale = config.full_scale;
  const double* __restrict in = reinterpret_cast<const double*>(x);
  // Compare-only sweep: no divide chain, so this vectorizes to pure
  // compare/or and runs at load bandwidth — the cost of keeping the
  // saturation flag exact over the skipped regions is a read pass, not a
  // quantization pass.
  unsigned any = 0;
  for (std::size_t i = 2 * begin; i < 2 * end; ++i) {
    const double v = in[i];
    any |= static_cast<unsigned>(v < -full_scale) |
           static_cast<unsigned>(v > full_scale);
  }
  clipped_any |= any;
}

double agc_full_scale(std::span<const cplx> x, double headroom) {
  return std::max(dsp::rms(x) * headroom, 1e-30);
}

double agc_full_scale_from_energy(double energy, std::size_t n,
                                  double headroom) {
  // Same mean -> sqrt -> scale -> clamp sequence as agc_full_scale via
  // dsp::rms/mean_power, so equal energy bits give equal full-scale bits.
  const double mean = n > 0 ? energy / static_cast<double>(n) : 0.0;
  return std::max(std::sqrt(mean) * headroom, 1e-30);
}

double quantization_noise_power(const adc_config& config) {
  const double levels = static_cast<double>(1ULL << config.bits);
  const double step = 2.0 * config.full_scale / levels;
  // step^2/12 per axis, two axes.
  return step * step / 6.0;
}

bool detail::adc_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace backfi::fd
