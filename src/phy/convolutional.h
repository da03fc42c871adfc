// Rate-1/2 K=7 convolutional code (generators 133/171 octal, the 802.11
// mother code) with 802.11 puncturing to 2/3 and 3/4, plus a soft-decision
// Viterbi decoder.
//
// The same code protects both the WiFi PPDU payload and the BackFi tag
// payload: the paper's tag uses "a rate 1/2 convolutional encoder with
// constraint length of 7" (Section 4.1) with rates 1/2 and 2/3 evaluated.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phy/bits.h"

namespace backfi::phy {

enum class code_rate {
  half,           ///< 1/2 (unpunctured mother code)
  two_thirds,     ///< 2/3 (puncture pattern A1 B1 A2 -)
  three_quarters  ///< 3/4 (puncture pattern A1 B1 A2 - - B3)
};

/// Numeric value of the code rate.
double code_rate_value(code_rate rate);

/// Human-readable name, e.g. "1/2".
const char* code_rate_name(code_rate rate);

/// Number of zero tail bits appended by conv_encode to terminate the trellis.
inline constexpr std::size_t conv_tail_bits = 6;

/// Encode info bits at rate 1/2, appending a 6-bit zero tail. Output length
/// is 2 * (len(info) + 6).
bitvec conv_encode(std::span<const std::uint8_t> info);

/// Packed form of conv_encode for the transmitter: `in` holds info bits
/// LSB-first per byte (the 802.11 bit order) and each input byte becomes
/// one 16-bit word of mother-code bits, one table lookup per byte (bits 2i
/// and 2i + 1 are conv_encode's two outputs for input bit i). Starts from
/// the zero state and appends no tail: callers reproduce conv_encode by
/// placing its 6 zero tail bits in the input. `out` needs in.size() words.
void conv_encode_packed(std::span<const std::uint8_t> in,
                        std::span<std::uint16_t> out);

/// Puncture a rate-1/2 coded stream to the requested rate.
bitvec puncture(std::span<const std::uint8_t> coded, code_rate rate);

/// Transmit mask over one puncturing period of mother-code bits
/// (1 = sent, 0 = punctured); period 2, 4 or 6 for 1/2, 2/3, 3/4.
std::span<const std::uint8_t> puncture_pattern(code_rate rate);

/// Expand a punctured soft stream back to `mother_length` mother-code
/// positions, inserting zero (erasure) metrics at punctured positions, into
/// a reusable caller buffer (resized to `mother_length`).
/// Soft convention: positive value means "bit 0 more likely" (LLR-like).
/// Throws if the punctured stream does not match mother_length.
void depuncture_into(std::span<const double> soft, code_rate rate,
                     std::size_t mother_length, std::vector<double>& out);

/// Soft-decision Viterbi decode of a rate-1/2 stream (after depuncturing).
/// `soft` must contain 2 * (n_info + 6) metrics; `decoded` receives the
/// n_info decoded information bits (tail stripped). The trellis is forced
/// to end in the zero state. `decisions` is the traceback store: one word
/// per trellis step whose bit ns is set when next state ns took its odd
/// predecessor. Both are caller buffers resized here, so a reused pair
/// decodes without allocating. Returns the winning path's accumulated
/// metric at the terminal zero state (higher = better match; scale is the
/// sum of |soft| branch metrics) — the decoder confidence probe of the
/// observability layer.
double viterbi_decode(std::span<const double> soft, std::size_t n_info,
                      std::vector<std::uint64_t>& decisions, bitvec& decoded);

/// Number of coded bits produced for n_info information bits at `rate`
/// (including the tail), in O(1). Throws std::overflow_error when the count
/// does not fit std::size_t.
std::size_t coded_length(std::size_t n_info, code_rate rate);

}  // namespace backfi::phy
