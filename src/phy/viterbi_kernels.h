// Hot add-compare-select loop of the soft Viterbi decoder, split into its
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

/// The forward pass of the soft Viterbi decoder over the K=7 code
/// (generators 133/171 octal, matching convolutional.cpp's tables()):
/// n_steps add-compare-select steps from the zero state, step k reading
/// the soft pair soft[2k], soft[2k + 1] (positive favours bit 0). Steps at
/// or past n_info are tail steps (input forced 0): every state with input
/// bit 1 gets metric -inf and a clear decision bit. decisions[k] receives
/// step k's word: bit ns is set when next state ns took its odd
/// predecessor 2*(ns & 31) + 1 (its input bit is ns >> 5). Returns the
/// final path metric of state 0.
double viterbi_trellis(const double* soft, std::size_t n_steps,
                       std::size_t n_info, std::uint64_t* decisions);

/// True when viterbi_kernels.cpp was compiled with AVX2, i.e. the per-TU
/// kernel flags of src/phy/CMakeLists.txt took effect.
bool viterbi_kernels_avx2();

}  // namespace backfi::phy::detail
