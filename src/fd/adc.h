// Receiver ADC model: clipping plus uniform quantization.
//
// The reason BackFi needs *analog* cancellation before the ADC (paper
// Section 4.2): un-cancelled self-interference either saturates the
// converter or forces a full-scale setting whose quantization floor buries
// the backscatter signal. This model makes that failure mode reproducible.
#pragma once

#include <span>

#include "dsp/types.h"

namespace backfi::fd {

struct adc_config {
  /// Effective number of bits per I/Q axis (WARP-class radios: 12).
  std::size_t bits = 12;
  /// Full-scale amplitude per axis; an AGC in front of the ADC normally
  /// sets this to a small multiple of the input RMS.
  double full_scale = 1.0;
};

/// Quantize x[begin, end) into out[begin, end) (both must cover `end`
/// samples; out must not alias x): clip each axis to full scale and round
/// it to the LSB grid, OR-ing per-axis clip events (the receive chain's ADC
/// saturation flag) into `clipped_any`. Every sample is processed
/// independently with the same clamp/divide/round/scale sequence, so any
/// chunking of the range is bit-identical to one full sweep — the receive
/// chain interleaves these chunks with the digital cancellation
/// convolution to hide the quantizer's divide latency under the
/// canceller's FP work.
void quantize_range_saturation(const cplx* x, std::size_t begin,
                               std::size_t end, const adc_config& config,
                               cplx* out, unsigned& clipped_any);

/// Saturation scan only: OR the per-axis clip events of x[begin, end) into
/// `clipped_any` without quantizing — the exact |I|/|Q| > full_scale
/// predicate of quantize_range_saturation, minus the divide/round/store.
/// The ROI receive chain uses it to complete the adc_saturated flag over
/// capture regions whose quantized values nobody reads: OR-ing the scan of
/// the skipped regions with the quantized regions' flag reproduces the
/// full-sweep flag bit-for-bit (the reduction is order-independent).
void saturation_scan_range(const cplx* x, std::size_t begin, std::size_t end,
                           const adc_config& config, unsigned& clipped_any);

/// Full-scale choice of a simple AGC: `headroom` times the input RMS.
double agc_full_scale(std::span<const cplx> x, double headroom = 4.0);

/// agc_full_scale from a precomputed energy sum (sum |x[i]|^2 over n
/// samples). Bit-identical to agc_full_scale(x, headroom) when `energy`
/// equals dsp::energy(x) to the bit — the receive chain gets that energy
/// for free from the analog canceller's fused store loop.
double agc_full_scale_from_energy(double energy, std::size_t n,
                                  double headroom = 4.0);

/// Quantization noise power of the configuration (per complex sample).
double quantization_noise_power(const adc_config& config);

namespace detail {
/// True when adc.cpp was compiled with AVX2, i.e. the per-TU flags of
/// src/fd/CMakeLists.txt took effect.
bool adc_avx2();
}  // namespace detail

}  // namespace backfi::fd
