// Linear convolution and streaming FIR filtering.
//
// Channels in BackFi are short (a handful of 50 ns taps), so those stay on
// the direct-form loop. Long kernels — wideband channel soundings, matched
// filters over whole captures — dispatch to an FFT overlap-save path that
// turns O(N*M) into O(N log M). The fused cancellation forms are
// direct-form at every length.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"
#include "dsp/workspace.h"

namespace backfi::dsp {

/// Kernel length at which convolve/cross_correlate switch from the direct
/// loop to the FFT overlap-save path. Everything the in-simulation signal
/// chain convolves (multipath taps, canceller taps, the 64-sample LTF
/// reference) sits well below this, so simulation outputs are bit-identical
/// to the pre-dispatch direct implementation.
inline constexpr std::size_t fft_convolve_min_taps = 96;

/// Full linear convolution: output length = len(x) + len(h) - 1.
/// Dispatches on min(len(x), len(h)) between the two paths below.
cvec convolve(std::span<const cplx> x, std::span<const cplx> h);

/// Direct-form O(len(x) * len(h)) convolution (the short-kernel path;
/// exposed for equivalence tests and perf baselines).
cvec convolve_direct(std::span<const cplx> x, std::span<const cplx> h);

/// FFT overlap-save convolution. Same output as convolve_direct to within
/// FFT rounding (~1e-12 relative for unit-scale inputs).
cvec convolve_overlap_save(std::span<const cplx> x, std::span<const cplx> h);

/// "Same"-length convolution: output length = len(x), aligned so that
/// h[0] multiplies x[n] (i.e. the filter is causal, output truncated).
cvec convolve_same(std::span<const cplx> x, std::span<const cplx> h);

/// Windowed "same"-length convolution: returns a len(x) vector whose samples
/// in [begin, end) (clamped to len(x)) are bit-identical to convolve_same at
/// the same indices and zero elsewhere. Cost is proportional to the window,
/// not the capture, in the short-kernel regime.
cvec convolve_same_range(std::span<const cplx> x, std::span<const cplx> h,
                         std::size_t begin, std::size_t end);

/// As convolve_same_range, but writing into a reusable caller buffer (sized
/// to len(x)). Only the window [begin, end) is written — samples outside it
/// are left with unspecified (stale) contents, so callers must not read
/// them. `stats`, when non-null, records buffer reuse vs. growth.
void convolve_same_range_into(std::span<const cplx> x, std::span<const cplx> h,
                              std::size_t begin, std::size_t end, cvec& out,
                              workspace_stats* stats = nullptr);

/// convolve_same into a reusable caller buffer (whole output written).
void convolve_same_into(std::span<const cplx> x, std::span<const cplx> h,
                        cvec& out, workspace_stats* stats = nullptr);

/// Fused cancellation: out[j] = rx[j] - convolve_direct(x, h)[j] for
/// j < min(len(rx), len(x)), and out[j] = rx[j] beyond (matching a
/// subtract over the overlapping prefix). Direct form at every kernel
/// length — the cancellers' channels are short, and no FFT-length
/// cancellation is ever configured — bit-identical to materializing the
/// direct convolution and subtracting, without the intermediate buffer.
void convolve_same_subtract_into(std::span<const cplx> rx,
                                 std::span<const cplx> x,
                                 std::span<const cplx> h, cvec& out,
                                 workspace_stats* stats = nullptr);

/// As convolve_same_subtract_into, additionally returning the residual's
/// energy sum |out[j]|^2 over the whole output, accumulated in ascending
/// index order with one norm rounding per element — bit-identical to
/// calling energy(out) afterwards, fused into the store loop so the output
/// is not re-read. (The receive chain's AGC needs exactly this energy
/// right after the analog cancel; the separate rms pass was a full
/// capture-length read.)
double convolve_same_subtract_energy_into(std::span<const cplx> rx,
                                          std::span<const cplx> x,
                                          std::span<const cplx> h, cvec& out,
                                          workspace_stats* stats = nullptr);

/// Streaming direct-form FIR filter holding state across process() calls,
/// used by the digital canceller which filters a packet in segments.
class fir_filter {
 public:
  explicit fir_filter(cvec taps);

  /// Filter a block; returns same-length output, retaining tail state.
  cvec process(std::span<const cplx> input);

  /// Clear the delay line.
  void reset();

  const cvec& taps() const { return taps_; }

 private:
  cvec taps_;
  cvec history_;  // last (taps-1) inputs from previous blocks
};

}  // namespace backfi::dsp
