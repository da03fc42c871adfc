// The OFDM transmitter's inverse transforms, four symbols per pass, in
// their own translation unit so they get the kernel flags
// (backfi_kernel_sources in src/CMakeLists.txt) while dsp/fft.cpp keeps
// the default ones.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace backfi::wifi::detail {

/// Inverse-transform `n` OFDM symbol bodies in place and scale them for
/// transmission. Body s holds the 64 frequency bins at
/// `bodies + s * stride` and becomes the 64 time-domain samples, each
/// component multiplied by 1/64 and then by `tx_scale` (two roundings).
/// Four symbols run per pass, one per lane of a four-double vector, and
/// every lane goes through the 64-point inverse fft_plan's own swap pairs
/// and twiddles with the plan's per-butterfly operations, so each body is
/// bit-identical to fft_plan::execute followed by the two scalings. When
/// `n` is not a multiple of 4 the last pass runs zero bodies in its spare
/// lanes and stores nothing from them.
void inverse_transform_symbols(cplx* bodies, std::size_t n, std::size_t stride,
                               double tx_scale);

/// True when ofdm_kernels.cpp was compiled with AVX2, i.e. the per-TU
/// kernel flags of src/wifi/CMakeLists.txt took effect.
bool ofdm_kernels_avx2();

}  // namespace backfi::wifi::detail
