// OFDM symbol construction for the 802.11a/g 20 MHz PHY: 64-point
// IFFT, 16-sample cyclic prefix, 48 data subcarriers and 4 pilots.
#pragma once

#include <array>
#include <span>
#include <stdexcept>

#include "dsp/types.h"

namespace backfi::wifi {

inline constexpr std::size_t fft_size = 64;
inline constexpr std::size_t cyclic_prefix = 16;
inline constexpr std::size_t symbol_samples = fft_size + cyclic_prefix;  // 4 us
inline constexpr std::size_t n_data_subcarriers = 48;
inline constexpr std::size_t n_pilot_subcarriers = 4;

/// Logical subcarrier indices (-26..26, excluding DC and pilots) of the 48
/// data subcarriers, in transmission order.
std::span<const int> data_subcarrier_indices();

/// Pilot subcarrier indices {-21, -7, 7, 21}.
std::span<const int> pilot_subcarrier_indices();

/// Base pilot values (1, 1, 1, -1) before the polarity sequence.
std::span<const double> pilot_base_values();

/// Pilot polarity p_n for data symbol n (127-periodic scrambler sequence,
/// Clause 17.3.5.10); n = 0 corresponds to the SIGNAL symbol.
double pilot_polarity(std::size_t symbol_index);

/// Map a logical subcarrier index (-32..31) to the FFT bin (0..63).
std::size_t subcarrier_to_bin(int subcarrier);

/// Assemble n = data_points.size() / 48 consecutive OFDM symbols, symbol s
/// from data points [48 s, 48 s + 48) and numbered first_symbol + s for the
/// pilot polarity, into the n * 80 samples of `out`: each symbol places its
/// data + pilots in frequency, runs the 64-point IFFT in place in its body
/// (no scratch buffer) and prepends the cyclic prefix. The transforms run
/// four symbols per pass (wifi/ofdm_kernels), bit-identical to the
/// per-symbol fft_plan path. Output power is normalized so the average
/// sample power is ~1. Throws std::invalid_argument unless data_points
/// holds whole symbols and `out` exactly their samples.
void modulate_symbols_into(std::span<const cplx> data_points,
                           std::size_t first_symbol, std::span<cplx> out);

/// modulate_symbols_into for one symbol: exactly 48 data points into
/// exactly 80 samples.
inline void modulate_symbol_into(std::span<const cplx> data_points,
                                 std::size_t symbol_index,
                                 std::span<cplx> out) {
  if (data_points.size() != n_data_subcarriers || out.size() != symbol_samples)
    throw std::invalid_argument(
        "modulate_symbol_into: need exactly 48 data points and 80 samples");
  modulate_symbols_into(data_points, symbol_index, out);
}

/// Demodulated frequency-domain content of one symbol.
struct demodulated_symbol {
  std::array<cplx, n_data_subcarriers> data;
  std::array<cplx, n_pilot_subcarriers> pilots;
};

/// Strip the cyclic prefix of one 80-sample symbol and FFT it; input must
/// contain exactly symbol_samples entries aligned to the symbol start.
demodulated_symbol demodulate_symbol(std::span<const cplx> samples);

/// IFFT output scaling used at the transmitter, exposed for the receiver's
/// equalizer normalization and tests.
double tx_scale();

}  // namespace backfi::wifi
