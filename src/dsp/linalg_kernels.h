// Hot inner loops of the FIR least-squares normal equations, compiled in
// their own translation unit with aggressive flags (backfi_kernel_sources in
// src/CMakeLists.txt: -O3 -mavx2 -ffp-contract=off, like every kernel TU).
//
// fir_normal_equations_vectorized exploits that the Gram entries for a fixed
// row i share the broadcast factor conj(x[t - i]) and that the RHS entries
// share the broadcast y[t], so lanes run ACROSS matrix entries while each
// entry's time accumulation stays strictly sequential — bit-identical to the
// seed scalar triple loop at every size, at ~2 complex MACs per cycle
// instead of ~1 per 4 cycles.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace backfi::dsp::detail {

/// Build the pre-ridge normal equations for the causal FIR model
/// y[t] = sum_k h[k] x[t-k] over the rows t in [n_taps-1, n) where the full
/// filter memory exists. `gram` is n_taps x n_taps column-major (both
/// triangles written); `rhs` has n_taps entries. Bit-identical to the
/// seed scalar build (the reference in tests/dsp/linalg_kernels_test.cpp)
/// for every entry.
void fir_normal_equations_vectorized(const cplx* x, std::size_t n,
                                     const cplx* y, std::size_t n_taps,
                                     cplx* gram, cplx* rhs);

/// RHS only (n_taps cross-correlation dot products against a new target y;
/// the Gram depends only on x). Bit-identical to the scalar RHS loop.
void fir_rhs_vectorized(const cplx* x, std::size_t n, const cplx* y,
                        std::size_t n_taps, cplx* rhs);

/// True when linalg_kernels.cpp was compiled with AVX2, i.e. the per-TU
/// kernel flags of src/dsp/CMakeLists.txt took effect.
bool linalg_kernels_avx2();

}  // namespace backfi::dsp::detail
