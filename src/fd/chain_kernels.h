// Per-sample kernels of the hardened receive chain (internal to fd): the
// residual-gain tracker's three passes and the widely-linear / DC
// cancellation sweep.
//
// Exactness contract: every sample gets the same IEEE operations as the
// std::complex reference loops kept in the TU (GCC expands a * b as
// (ar*br - ai*bi, ar*bi + ai*br), one rounding per operation), every
// running sum is still added in ascending sample order, and every division
// stays a division. The TU is compiled with -mavx2 when the build host
// supports it, with contraction off and never -mfma. NaN is the one case
// the per-sample operations do not settle: GCC calls __muldc3 when both
// parts of a complex product are NaN (reachable from finite inputs through
// inf - inf after an overflow), and a NaN's sign depends on operand order.
// So a tracker sample pair whose vector results hold a NaN is redone by the
// std::complex reference loop, and the cancellation sweep reports NaN
// outputs so its caller can re-run the unfused reference.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace backfi::fd::detail {

/// Number of `block`-sample gain blocks covering n samples (the last one
/// may be short), without the wrap of (n + block - 1) / block at a block
/// size near SIZE_MAX. Requires block >= 1.
std::size_t gain_block_count(std::size_t n, std::size_t block);

/// Residual-gain tracking of receive_chain_config::track_residual_gain, in
/// place on `cleaned` against the digital stage's SI model
/// m = digitized - cleaned:
///  1. one widely-linear (a, b) fit of cleaned on (m, conj(m)) over the
///     whole capture;
///  2. cleaned -= a*m + b*conj(m) over the whole capture, plus a complex
///     gain on the corrected model per max(gain_block, 2) samples;
///  3. cleaned -= g(i)*m, with g linearly interpolated between block
///     centres, over `apply_ranges` only (disjoint, ascending, clamped to
///     the capture).
/// `gain` and `centre` are the per-block workspaces (resized; allocation-
/// free once warm). Requires len(cleaned) == len(digitized) >= 2.
void track_residual_gain(std::span<const cplx> digitized,
                         std::span<cplx> cleaned, std::size_t gain_block,
                         std::span<const dsp::sample_range> apply_ranges,
                         cvec& gain, std::vector<double>& centre);

/// The widely-linear / DC cancellation sweep over [o0, o1):
///   out[j] = ((src[j] - (x * h)[j]) - (conj(x) * hc)[j]) - dc
/// with both convolutions accumulated like dsp::detail::
/// convolve_same_gather (descending tap index, one rounding per operation)
/// and conj applied to x on the fly; nhc == 0 drops the conjugate branch.
/// out and src are indexed absolutely. Requires nh >= 1 and o1 <= len(x).
/// Returns false when an output is NaN: those bits may differ from the
/// unfused passes (convolve, subtract, subtract), which the caller must
/// then re-run. Otherwise the outputs equal the unfused passes' bit for bit.
bool cancel_widely_linear(const cplx* x, const cplx* h, std::size_t nh,
                          const cplx* hc, std::size_t nhc, cplx dc,
                          const cplx* src, cplx* out, std::size_t o0,
                          std::size_t o1);

/// True when chain_kernels.cpp was compiled with AVX2, i.e. the per-TU
/// kernel flags of src/fd/CMakeLists.txt took effect.
bool chain_kernels_avx2();

}  // namespace backfi::fd::detail
