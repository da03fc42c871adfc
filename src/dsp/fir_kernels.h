// Windowed direct-form convolution kernels (internal to dsp).
//
// These compute the "same"-length convolution restricted to an output window
// [o0, o1), bit-identical to convolve/convolve_same on that window.
// The TU is compiled with -mavx2 (when the build host supports it) but
// explicitly WITHOUT -mfma and with -ffp-contract=off: fusing the
// multiply-add chains would change rounding and break the bit-identity
// contract against the scalar baseline.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace backfi::dsp::detail {

/// out[j - o0] = sum_k h[k] * x[j - k] for j in [o0, o1), accumulated in
/// ascending-input order (descending k) — the same per-output addition
/// sequence as convolve's scatter loop, so results are bit-identical
/// for finite inputs. Requires o1 <= nx and nh >= 1.
void convolve_same_gather(const cplx* x, std::size_t nx, const cplx* h,
                          std::size_t nh, cplx* out, std::size_t o0,
                          std::size_t o1);

/// Fused cancellation form: out[j - o0] = rx[j] - (x * h)[j] over [o0, o1),
/// with the convolution accumulated exactly as convolve_same_gather. `rx`
/// must cover indices [o0, o1). Bit-identical to materializing the
/// convolution and subtracting.
void convolve_same_gather_subtract(const cplx* x, std::size_t nx,
                                   const cplx* h, std::size_t nh,
                                   const cplx* rx, cplx* out, std::size_t o0,
                                   std::size_t o1);

/// As convolve_same_gather_subtract, additionally returning `energy` plus
/// sum_j |out[j - o0]|^2, added in ascending output order with one norm
/// rounding per element — bit-identical to running dsp::energy over the
/// produced window afterwards, without a second read pass, and to one call
/// over the union when consecutive windows carry the returned energy into
/// the next — and raising `max_abs` to the peak axis magnitude
/// max(|re|, |im|) over the window's outputs, NaN components ignored
/// (unchanged for an empty window). (The AGC needs the analog residual's
/// energy and the ADC saturation check its peak immediately after the
/// cancel; the store loop still holds every output in registers.)
double convolve_same_gather_subtract_energy(const cplx* x, std::size_t nx,
                                            const cplx* h, std::size_t nh,
                                            const cplx* rx, cplx* out,
                                            std::size_t o0, std::size_t o1,
                                            double energy, double& max_abs);

/// True when fir_kernels.cpp was compiled with AVX2, i.e. the per-TU
/// kernel flags of src/dsp/CMakeLists.txt took effect.
bool fir_kernels_avx2();

}  // namespace backfi::dsp::detail
