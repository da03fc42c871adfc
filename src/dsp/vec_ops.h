// Element-wise and reduction operations on complex baseband vectors.
#pragma once

#include <span>

#include "dsp/types.h"

namespace backfi::dsp {

/// Sum of |x[i]|^2 over the span.
double energy(std::span<const cplx> x);

/// Mean of |x[i]|^2 (0 for empty spans).
double mean_power(std::span<const cplx> x);

/// Root-mean-square magnitude.
double rms(std::span<const cplx> x);

/// y += x element-wise. Throws std::invalid_argument unless the spans have
/// equal length.
void add_in_place(std::span<cplx> y, std::span<const cplx> x);

/// y[i] += s * x[i] element-wise, with `x` given as 2 * y.size() flat
/// doubles (interleaved re/im, the layout the AWGN replay cache stores).
/// Each component is multiplied by `s` once and added once, never fused:
/// the implementation lives in rng_kernels.cpp (the contraction-off SIMD
/// TU) because the AWGN replay cache relies on this matching the scalar
/// `y[i] += s * x[i]` rounding bit-for-bit. Throws std::invalid_argument
/// unless x.size() == 2 * y.size().
void add_scaled_in_place(std::span<cplx> y, std::span<const double> x,
                         double s);

/// Element-wise product x .* y as a new vector. Throws
/// std::invalid_argument unless the spans have equal length.
cvec hadamard(std::span<const cplx> x, std::span<const cplx> y);

/// Element-wise product x .* y into a reusable caller buffer (sized to
/// x.size()). Throws std::invalid_argument unless the spans have equal
/// length.
void hadamard_into(std::span<const cplx> x, std::span<const cplx> y,
                   cvec& out);

}  // namespace backfi::dsp
