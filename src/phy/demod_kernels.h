// Hot demodulation kernels of phy::constellation, split into their own
// translation unit so they can be compiled with AVX2 (contraction off)
// while constellation.cpp keeps the default flags — the same pattern as the
// dsp fir/rng/linalg kernel TUs. Both keep the exact semantics of the
// scalar loops they replaced: squared distances computed as norm(y - p)
// with one rounding per operation, the nearest-point scan's first-wins tie
// break, and the demapper's per-bit minimum sequence.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/types.h"

namespace backfi::phy::detail {

/// Index of the point minimizing |y - points[i]|^2 over i in [0, n);
/// lowest index wins ties (and a non-finite y returns 0, like a scan whose
/// comparisons all fail). n must be at least 1.
std::size_t nearest_point(const cplx* points, std::size_t n, cplx y);

/// Max-log LLRs of n_symbols symbols into out[s * bits_per_symbol + b]:
/// (min over points whose label has bit b set of |y - p|^2, minus the same
/// minimum over points with bit b clear) * inv_var, bit b counted MSB
/// first — constellation::demap_llr's value. Each minimum is taken as that
/// reference does, std::min(slot, d) over ascending point index starting
/// from +inf, so every output bit (NaN and infinities included) equals it.
/// Requires 1 <= bits_per_symbol <= 8 and n_points >= 1.
void demap_llr_max_log(const cplx* points, const std::uint32_t* labels,
                       std::size_t n_points, std::size_t bits_per_symbol,
                       const cplx* symbols, std::size_t n_symbols,
                       double inv_var, double* out);

/// True when demod_kernels.cpp was compiled with AVX2, i.e. the per-TU
/// kernel flags of src/phy/CMakeLists.txt took effect.
bool demod_kernels_avx2();

}  // namespace backfi::phy::detail
