// Constellation mapping and soft demapping.
//
// Two families are used in BackFi:
//  - 802.11 gray-coded BPSK/QPSK/16-QAM/64-QAM for the WiFi excitation PPDU;
//  - gray-coded n-PSK (BPSK/QPSK/8-PSK/16-PSK) for the tag's backscatter
//    phase modulation (the paper's switch tree supports up to 16-PSK).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"
#include "phy/bits.h"

namespace backfi::phy {

/// A labelled constellation: points[i] carries bit label labels[i]
/// (MSB-first, bits_per_symbol bits).
struct constellation {
  std::vector<cplx> points;
  std::vector<std::uint32_t> labels;
  std::size_t bits_per_symbol = 0;

  /// Map `bits` (length multiple of bits_per_symbol, MSB first per symbol)
  /// to complex points, writing into a caller buffer of
  /// bits.size()/bits_per_symbol points (no per-call allocation for
  /// constellations up to 64 points). Throws std::invalid_argument on a
  /// misaligned bit count or a wrong buffer size.
  void map_into(std::span<const std::uint8_t> bits, std::span<cplx> out) const;

  /// Nearest-point hard decision; returns the bit label of the winner.
  std::uint32_t slice(cplx y) const;

  /// Max-log LLRs for one received point: one value per bit, MSB first.
  /// Positive = bit 0 more likely; `noise_var` is E|n|^2 of the effective
  /// complex noise.
  void demap_llr(cplx y, double noise_var, std::vector<double>& out) const;

  /// Max-log LLRs for a symbol stream (bits_per_symbol values per symbol),
  /// written into a reusable caller buffer (resized; allocation-free once
  /// warm for constellations up to 8 bits per symbol — the decoder hot
  /// path).
  void demap_llr_stream_into(std::span<const cplx> symbols, double noise_var,
                             std::vector<double>& out) const;
};

/// 802.11 gray-mapped constellation with `bits_per_symbol` in {1, 2, 4, 6}.
const constellation& wifi_constellation(std::size_t bits_per_symbol);

/// Gray-coded n-PSK with order in {2, 4, 8, 16}; point k sits at angle
/// 2*pi*k/order and carries the gray code of k.
const constellation& psk_constellation(std::size_t order);

/// Gray encode / decode helpers (binary-reflected).
std::uint32_t gray_encode(std::uint32_t v);
std::uint32_t gray_decode(std::uint32_t g);

}  // namespace backfi::phy
