// Linear convolution.
//
// Channels in BackFi are short (a handful of 50 ns taps at 20 MHz), so
// every form below is the direct O(len(x) * len(h)) loop at every kernel
// length. The windowed, "into" and fused cancellation forms run the gather
// kernels of dsp/fir_kernels.h, bit-identical to convolve on their window
// for finite inputs.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace backfi::dsp {

/// Full linear convolution: output length = len(x) + len(h) - 1 (empty if
/// either operand is).
cvec convolve(std::span<const cplx> x, std::span<const cplx> h);

/// "Same"-length convolution: output length = len(x), aligned so that
/// h[0] multiplies x[n] (i.e. the filter is causal, output truncated).
cvec convolve_same(std::span<const cplx> x, std::span<const cplx> h);

/// Windowed "same"-length convolution into a reusable caller buffer (sized
/// to len(x)): samples in [begin, end) (clamped to len(x)) are
/// bit-identical to convolve_same at the same indices. Only that window is
/// written — samples outside it are left with unspecified (stale) contents,
/// so callers must not read them. Cost is proportional to the window, not
/// the capture.
void convolve_same_range_into(std::span<const cplx> x, std::span<const cplx> h,
                              std::size_t begin, std::size_t end, cvec& out);

/// convolve_same into a reusable caller buffer (whole output written).
void convolve_same_into(std::span<const cplx> x, std::span<const cplx> h,
                        cvec& out);

/// As above, into a span of exactly len(x) (else std::invalid_argument).
void convolve_same_into(std::span<const cplx> x, std::span<const cplx> h,
                        std::span<cplx> out);

/// Fused cancellation: out[j] = rx[j] - convolve(x, h)[j] for
/// j < min(len(rx), len(x)), and out[j] = rx[j] beyond (matching a
/// subtract over the overlapping prefix). Bit-identical to materializing
/// the convolution and subtracting, without the intermediate buffer.
void convolve_same_subtract_into(std::span<const cplx> rx,
                                 std::span<const cplx> x,
                                 std::span<const cplx> h, cvec& out);

/// As convolve_same_subtract_into, additionally returning the residual's
/// energy sum |out[j]|^2 over the whole output, accumulated in ascending
/// index order with one norm rounding per element — bit-identical to
/// calling energy(out) afterwards, fused into the store loop so the output
/// is not re-read — and writing its peak axis magnitude max(|re|, |im|),
/// NaN components ignored (0 for an empty output), to `max_abs`. (The
/// receive chain's AGC needs exactly this energy right after the analog
/// cancel, and the ADC saturation flag this peak; separate passes would
/// each be a full capture-length read.)
double convolve_same_subtract_energy_into(std::span<const cplx> rx,
                                          std::span<const cplx> x,
                                          std::span<const cplx> h, cvec& out,
                                          double& max_abs);

}  // namespace backfi::dsp
