// Hot pre-decode scans of reader/decoder.cpp, split into their own
// translation unit so they can be compiled with AVX2 while decoder.cpp
// keeps the default flags — the same pattern as the dsp and phy kernel TUs.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace backfi::reader::detail {

/// True when every component of x[i] and y[i] is finite for i in
/// [begin, end). Both spans must cover [0, end). Boolean-identical to a
/// scalar std::isfinite scan over the same window.
bool all_finite_window(std::span<const cplx> x, std::span<const cplx> y,
                       std::size_t begin, std::size_t end);

/// True when decoder_kernels.cpp was compiled with AVX2, i.e. the per-TU
/// kernel flags of src/reader/CMakeLists.txt took effect.
bool decoder_kernels_avx2();

}  // namespace backfi::reader::detail
