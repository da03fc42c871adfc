// Hot add-compare-select step of the soft Viterbi decoder, split into its
// own translation unit so it can be compiled with AVX2 (contraction off)
// while convolutional.cpp keeps the default flags — the same pattern as the
// dsp fir/rng/linalg kernel TUs. The kernel is bit-identical to the scalar
// gather-form loop it replaced: every candidate metric is the same
// metric[p] + (+-s0 + +-s1) two-add sequence, and the select keeps the
// strict `c1 > c0` tie break.
#pragma once

#include <cstddef>
#include <cstdint>

namespace backfi::phy::detail {

/// One trellis step over all 64 states of the K=7 code (generators
/// 133/171 octal, matching convolutional.cpp's tables()).
///  metric       path metrics entering the step (64 entries)
///  s0, s1       the step's two soft inputs (positive favours bit 0)
///  max_input    2 for data steps, 1 for tail steps (input forced 0)
///  next_metric  path metrics leaving the step (64 entries)
/// Returns the step's decisions: bit ns is set when next state ns took its
/// odd predecessor 2*(ns & 31) + 1 (its input bit is ns >> 5). Tail steps
/// set the metric of every state with input bit 1 to -inf and leave its
/// decision bit clear.
std::uint64_t viterbi_acs_step(const double* metric, double s0, double s1,
                               int max_input, double* next_metric);

/// True when viterbi_kernels.cpp was compiled with AVX2, i.e. the per-TU
/// kernel flags of src/phy/CMakeLists.txt took effect.
bool viterbi_kernels_avx2();

}  // namespace backfi::phy::detail
