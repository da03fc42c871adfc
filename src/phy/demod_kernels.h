// Hot nearest-point search of constellation::slice, split into its own
// translation unit so it can be compiled with AVX2 (contraction off) while
// constellation.cpp keeps the default flags — the same pattern as the dsp
// fir/rng/linalg kernel TUs. The kernel returns the index of the nearest
// point under the exact semantics of the scalar scan it replaced: squared
// distances computed as norm(y - p) with one rounding per operation, and
// the first (lowest-index) point wins ties.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace backfi::phy::detail {

/// Index of the point minimizing |y - points[i]|^2 over i in [0, n);
/// lowest index wins ties (and a non-finite y returns 0, like a scan whose
/// comparisons all fail). n must be at least 1.
std::size_t nearest_point(const cplx* points, std::size_t n, cplx y);

/// True when demod_kernels.cpp was compiled with AVX2, i.e. the per-TU
/// kernel flags of src/phy/CMakeLists.txt took effect.
bool demod_kernels_avx2();

}  // namespace backfi::phy::detail
