// Block sin/cos and log that return glibc's exact bits at vector speed.
//
// Each AVX2 lane evaluates the function as a double-double, far more
// accurately than one rounding, and keeps its own rounding only when that
// value lies at least 1/32 ULP clear of a rounding midpoint. glibc's sin,
// cos and log are within 0.52 ULP of the true value (libm_equivalence
// prints the observed maximum), so such a lane's rounding is the only
// double glibc can return: the kernel's output is glibc's. Every other
// lane — near-ties, reductions below 2^-20, out-of-range and non-finite
// inputs, the block tail — is computed by the libm call itself in one
// compacted loop. Without AVX2 the functions are just that loop.
// DESIGN.md §9 ("Certified libm blocks") has the error budget.
#pragma once

#include <array>
#include <cstddef>
#include <span>

namespace backfi::dsp {

/// sn[i] = std::sin(x[i]) and cs[i] = std::cos(x[i]), bit for bit, for
/// every x. Returns how many of the 2 * x.size() outputs came from libm
/// calls (all of them in a build without AVX2). Spans of different sizes
/// throw std::invalid_argument; x must not overlap sn or cs.
std::size_t sincos_block(std::span<const double> x, std::span<double> sn,
                         std::span<double> cs);

/// out[i] = std::log(x[i]), bit for bit, for every x. Returns how many
/// outputs came from std::log calls. Spans of different sizes throw
/// std::invalid_argument; x must not overlap out.
std::size_t log_block(std::span<const double> x, std::span<double> out);

namespace detail {

/// True when libm_kernels.cpp was compiled with AVX2 and FMA.
bool libm_kernels_avx2();

/// Row j: sin and cos of j*pi/128 as double-doubles,
/// {sin_hi, cos_hi, sin_lo, cos_lo}. Rows j = 0 mod 64 are exact (0, +-1).
extern const std::array<std::array<double, 4>, 256> sincos_table;

/// Row i: {invc, logc_hi, logc_lo, 0} for the mantissa interval i of
/// [0x1.6p-1, 0x1.6p0) that log_block's index selects (intervals of 2^-8
/// below 1 and 2^-7 above). invc has at most 8 significant bits, so
/// z * invc - 1 is exact for every z of the interval; logc_hi + logc_lo is
/// -log(invc). The two intervals next to 1 use invc = 1.
extern const std::array<std::array<double, 4>, 128> log_table;

}  // namespace detail

}  // namespace backfi::dsp
