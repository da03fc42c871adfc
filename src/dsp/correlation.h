// Cross-correlation primitives used for packet detection and symbol timing.
//
// The one reference the signal chain searches for is the 64-sample 802.11
// LTF, so the correlations are direct O(len(signal) * len(reference))
// loops at every length.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace backfi::dsp {

/// Sliding cross-correlation of `signal` against `reference`:
/// out[n] = sum_k signal[n+k] * conj(reference[k]),
/// for n in [0, len(signal) - len(reference)].
cvec cross_correlate(std::span<const cplx> signal, std::span<const cplx> reference);

/// How often normalized_correlation recomputes its sliding window energy
/// exactly instead of updating it incrementally. The incremental update
/// accumulates one rounding error per output sample; over a long capture a
/// large transient early in the buffer can leave the running energy with a
/// relative error big enough to distort the normalization (or go negative)
/// by the time the window reaches quiet samples. A periodic exact rebuild
/// bounds the drift to at most this many incremental steps. Every
/// in-simulation search window is shorter than this, so the refresh never
/// fires there and sync decisions are unchanged.
inline constexpr std::size_t normalized_correlation_refresh_interval = 4096;

/// Normalized correlation magnitude in [0, 1]:
/// |<s, r>| / (||s_window|| * ||r||), same indexing as cross_correlate.
rvec normalized_correlation(std::span<const cplx> signal,
                            std::span<const cplx> reference);

/// Schmidl-Cox style delayed autocorrelation metric with lag L over window L:
/// m[n] = |sum_{k<L} s[n+k] conj(s[n+k+L])| / sum_{k<L} |s[n+k+L]|^2.
/// Used for 802.11 short-preamble detection (L = 16).
rvec delayed_autocorrelation(std::span<const cplx> signal, std::size_t lag);

}  // namespace backfi::dsp
