// Tag energy model (paper Section 5.2.1, Fig. 7).
//
// The paper characterizes the tag's energy per bit (EPB) as the sum of the
// RF modulator, channel encoder and memory-read contributions, each with a
// dynamic (per-bit) and a static (power x time) part, and reports the
// unit-less Relative EPB (REPB) against the reference configuration
// (BPSK, rate 1/2, 1 MSPS) whose absolute EPB is 3.15 pJ/bit.
//
// Fitting the paper's own Fig. 7 table shows it follows exactly
//
//   REPB = u + v * N_sw / (b * r)  +  P(config) / (r * f_sym),
//   P(config) = q0 * b + q1 * N_sw + q2 * b * [r == 2/3]
//
// with u = 0.137 (memory-read + encoder dynamic energy), v = 0.289
// (energy per SPDT switch toggle), q0 = 125050 Hz (per-bit-lane static
// power: memory banks and symbol clocking scale with bits/symbol),
// q1 = 17450 Hz (per-switch static leakage) and q2 = 41727 Hz (extra
// static power of the puncturing logic at rate 2/3). All 36 table entries
// are matched to < 0.2 %; a unit test asserts this.
#pragma once

#include <cstddef>

#include "phy/convolutional.h"

namespace backfi::tag {

/// Backscatter phase-modulation formats supported by the switch tree.
enum class tag_modulation { bpsk, qpsk, psk8, psk16 };

/// Bits per symbol for a modulation.
std::size_t bits_per_symbol(tag_modulation mod);

/// PSK order (2/4/8/16).
std::size_t psk_order(tag_modulation mod);

/// Number of SPDT switches in the phase-selection tree (order - 1;
/// paper: BPSK 1, QPSK 3, 16-PSK 15).
std::size_t switch_count(tag_modulation mod);

/// Display name, e.g. "16PSK".
const char* modulation_name(tag_modulation mod);

/// One (modulation, coding rate, symbol rate) operating point.
struct tag_rate_config {
  tag_modulation modulation = tag_modulation::qpsk;
  phy::code_rate coding = phy::code_rate::half;
  double symbol_rate_hz = 1e6;
};

/// Information throughput of a config [bit/s]: b * r * f_sym.
double throughput_bps(const tag_rate_config& config);

/// Relative energy per bit against the (BPSK, 1/2, 1 MSPS) reference.
/// Throws std::invalid_argument when the symbol rate is not finite and
/// positive.
double relative_energy_per_bit(const tag_rate_config& config);

/// Absolute energy per bit [pJ] (REPB x 3.15 pJ). Throws as
/// relative_energy_per_bit does.
double energy_per_bit_pj(const tag_rate_config& config);

/// Reference EPB of (BPSK, 1/2, 1 MSPS) [pJ/bit] from the paper's parts
/// (ADG904 modulator, CY62146EV30 memory).
inline constexpr double reference_epb_pj = 3.15;

/// The symbol rates the tag hardware supports (paper: 0.01 - 2.5 MSPS;
/// these are the six columns of Fig. 7).
std::span<const double> standard_symbol_rates();

/// The six (modulation, coding) combinations of Fig. 7, in table order.
std::span<const tag_rate_config> fig7_configs();

}  // namespace backfi::tag
