// Packet-level erasure coding for wild ambient traffic (GuardRider,
// arXiv:1912.06493): when the excitation is bursty and unpredictable, the
// tag codes *across* packets so the reader can reassemble a source block
// from whichever coded packets survive the airtime it actually got,
// instead of retransmitting the specific packets that were lost.
//
// The code is systematic RS over GF(256): symbols 0..k-1 carry the data
// verbatim, repair symbols are evaluations of the unique degree-(k-1)
// interpolating polynomial at fresh field points. Any k distinct symbols
// reconstruct the block exactly; at most 255 distinct symbols exist.
// Encoding and decoding are pure functions of the block and the symbol
// indices, so sweeps are reproducible at any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "phy/bits.h"

namespace backfi::phy {

// --- GF(256) arithmetic (polynomial 0x11d, the RS/QR-code field) --------

/// Product in GF(256).
std::uint8_t gf256_mul(std::uint8_t a, std::uint8_t b);

/// a / b in GF(256); b must be nonzero.
std::uint8_t gf256_div(std::uint8_t a, std::uint8_t b);

// --- Block geometry ------------------------------------------------------

/// The two arms of the wild-traffic sweep (sim/wild_traffic.h).
enum class erasure_scheme : std::uint8_t {
  none,          ///< uncoded: the block travels as one packet (plain ARQ)
  reed_solomon,  ///< systematic RS(k + repair, k) over GF(256)
};

/// Display name, e.g. "reed_solomon".
const char* to_string(erasure_scheme scheme);

/// Typed reassembly outcome of one source block at the reader.
enum class block_status : std::uint8_t {
  decoded,        ///< all k source symbols recovered
  pending,        ///< not yet enough coded symbols
  unrecoverable,  ///< abandoned: repair budget (or the RS field) exhausted
};

/// The code geometry both ends agree on (part of the link setup, like the
/// wake preamble): k source packets per block, the per-packet symbol
/// payload, and the scheduled repair budget.
struct erasure_spec {
  std::size_t block_symbols = 8;    ///< k: source packets per block
  std::size_t symbol_bytes = 16;    ///< coded payload per tag packet
  /// Repair symbols scheduled per block (n = k + this, n <= 255).
  std::size_t rs_repair_symbols = 4;

  /// Coded symbols scheduled per block before any repair request:
  /// k + rs_repair_symbols.
  std::size_t scheduled_symbols() const;
  /// Payload bits of one coded tag packet (header + symbol bytes).
  std::size_t packet_payload_bits() const;
  /// Source bits carried by one decoded block.
  std::size_t block_payload_bits() const;
};

/// Header carried in every coded tag packet: 16-bit block id, 16-bit
/// encoding-symbol id (ESI), both MSB-first via bits_to_uint/append_uint.
inline constexpr std::size_t erasure_header_bits = 32;

/// Distinct block ids the 16-bit header field can name.
inline constexpr std::size_t max_block_ids = std::size_t{1} << 16;

/// One coded tag packet, ready for the tag payload pipeline.
struct coded_packet {
  std::uint32_t block = 0;
  std::uint32_t esi = 0;
  bitvec bits;  ///< header + symbol payload (LSB-first per byte)
};

/// Assemble header + symbol bytes into the over-the-air payload bits.
bitvec pack_coded_packet(std::uint32_t block, std::uint32_t esi,
                         std::span<const std::uint8_t> symbol);

/// Parse a received payload back into (block, esi, symbol). Returns false
/// when the bit count does not match the spec's packet layout.
bool unpack_coded_packet(std::span<const std::uint8_t> bits,
                         const erasure_spec& spec, std::uint32_t& block,
                         std::uint32_t& esi,
                         std::vector<std::uint8_t>& symbol);

// --- Systematic Reed-Solomon over GF(256) -------------------------------

/// Encode one coded symbol of a block. `data` is the k source symbols
/// (each spec.symbol_bytes long, stored contiguously row-major). ESIs
/// 0..k-1 return the data verbatim; k..254 return repair evaluations.
/// Throws std::invalid_argument for esi >= 255 or k > 255.
std::vector<std::uint8_t> rs_encode_symbol(
    std::span<const std::uint8_t> data, std::size_t k,
    std::size_t symbol_bytes, std::size_t esi);

/// Reconstruct the k source symbols from any >= k received coded symbols
/// with distinct ESIs. Returns the k*symbol_bytes source bytes, or
/// nullopt when fewer than k distinct symbols were supplied.
std::optional<std::vector<std::uint8_t>> rs_decode_block(
    std::span<const std::uint32_t> esis,
    std::span<const std::vector<std::uint8_t>> symbols, std::size_t k,
    std::size_t symbol_bytes);

}  // namespace backfi::phy
