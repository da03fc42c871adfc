// 802.11a/g PPDU transmitter: legacy preamble + SIGNAL field + DATA field.
//
// This is the excitation signal of BackFi: the AP sends a normal WiFi
// packet to a client, and the tag backscatters a phase-modulated copy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"
#include "phy/bits.h"
#include "wifi/ofdm.h"
#include "wifi/rates.h"

namespace backfi::wifi {

/// Transmit-side configuration.
struct tx_config {
  wifi_rate rate = wifi_rate::mbps24;
  /// Initial scrambler state (nonzero, 7 bits). The simulator's receiver
  /// is configured with the same seed (we do not model the per-frame seed
  /// handshake of the standard's SERVICE field).
  std::uint8_t scrambler_seed = 0x5D;
};

/// Layout and payload of one PPDU: everything but its waveform.
struct ppdu_info {
  wifi_rate rate{};            ///< data-field rate
  std::size_t psdu_bytes = 0;  ///< payload length
  std::size_t n_data_symbols = 0;
  std::size_t data_start = 0;  ///< sample index of the first data symbol
  std::vector<std::uint8_t> payload;  ///< the PSDU itself (for verification)
};

/// A fully assembled PPDU.
struct tx_ppdu : ppdu_info {
  cvec samples;  ///< preamble + SIGNAL + data, unit mean power
};

/// The 18 SIGNAL-field information bits (RATE, reserved, LENGTH, parity)
/// for a given rate and PSDU length, packed LSB-first: bit i of the word is
/// information bit i.
std::uint32_t signal_info_word(wifi_rate rate, std::size_t length_bytes);

/// signal_info_word() as one bit per entry.
inline phy::bitvec signal_info_bits(wifi_rate rate, std::size_t length_bytes) {
  const std::uint32_t word = signal_info_word(rate, length_bytes);
  phy::bitvec bits(18);
  for (std::size_t i = 0; i < bits.size(); ++i)
    bits[i] = static_cast<std::uint8_t>((word >> i) & 1u);
  return bits;
}

/// Encode and modulate the SIGNAL field into one OFDM symbol: `out` holds
/// exactly symbol_samples (80) entries.
void signal_symbol_into(wifi_rate rate, std::size_t length_bytes,
                        std::span<cplx> out);

/// signal_symbol_into() into a new vector.
inline cvec signal_symbol(wifi_rate rate, std::size_t length_bytes) {
  cvec out(symbol_samples);
  signal_symbol_into(rate, length_bytes, out);
  return out;
}

/// Assemble a complete PPDU carrying `psdu` at the configured rate.
/// Maximum PSDU length 4095 bytes (12-bit LENGTH field).
tx_ppdu transmit(std::span<const std::uint8_t> psdu, const tx_config& config = {});

/// As transmit(), writing the waveform straight into `samples` (exactly
/// ppdu_length_samples(psdu.size(), config.rate) entries, e.g. a slice of a
/// longer burst) and the layout into `info`.
///
/// The data field runs on packed words: the SERVICE + PSDU + pad bytes are
/// XOR-ed with the byte-packed 127-periodic scrambler keystream, encoded 8
/// input bits per table lookup (phy::conv_encode_packed), and each
/// subcarrier's constellation label is read straight from the encoder
/// output through a per-rate table composing the puncturer with the
/// inverse interleaver. Output is bit-identical to the textbook per-bit
/// chain (bytes_to_bits, scramble, conv_encode, puncture, interleave, map).
void transmit_into(std::span<const std::uint8_t> psdu, const tx_config& config,
                   std::span<cplx> samples, ppdu_info& info);

/// Duration of a PPDU carrying `length_bytes` at `rate`, in samples.
std::size_t ppdu_length_samples(std::size_t length_bytes, wifi_rate rate);

/// Convenience: PPDU around a random payload of `length_bytes` (for
/// excitation-signal generation in benches and tests).
tx_ppdu random_ppdu(std::size_t length_bytes, const tx_config& config,
                    std::uint64_t seed);

}  // namespace backfi::wifi
