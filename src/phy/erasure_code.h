// Packet-level erasure coding for wild ambient traffic (GuardRider,
// arXiv:1912.06493): when the excitation is bursty and unpredictable, the
// tag codes *across* packets so the reader can reassemble a source block
// from whichever coded packets survive the airtime it actually got,
// instead of retransmitting the specific packets that were lost.
//
// Two schemes share one block geometry (erasure_spec):
//   reed_solomon  systematic RS over GF(256): symbols 0..k-1 carry the
//                 data verbatim, repair symbols are evaluations of the
//                 unique degree-(k-1) interpolating polynomial at fresh
//                 field points. Any k distinct symbols reconstruct the
//                 block exactly; at most 255 distinct symbols exist.
//   fountain      LT code with a deterministic robust-soliton degree
//                 distribution seeded per (spec.seed, block, esi): the
//                 first k symbols form a systematic prefix (degree-1, in
//                 order), later symbols XOR a pseudo-random neighbour
//                 set. Rateless — repair symbols never run out; the
//                 decoder solves the received equations by incremental
//                 elimination over GF(2) and typically completes within a
//                 few symbols past k.
//
// Everything here is bit-deterministic: the encoder and decoder derive
// all randomness from the spec seed and symbol indices, never from call
// order, so sweeps are reproducible at any thread count.
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

enum class erasure_scheme : std::uint8_t {
  none,          ///< uncoded: every source symbol must arrive (plain ARQ)
  reed_solomon,  ///< systematic RS(k + repair, k) over GF(256)
  fountain,      ///< rateless LT with robust-soliton degrees
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
  erasure_scheme scheme = erasure_scheme::none;
  std::size_t block_symbols = 8;    ///< k: source packets per block
  std::size_t symbol_bytes = 16;    ///< coded payload per tag packet
  /// RS: repair symbols scheduled per block (n = k + this, n <= 255).
  std::size_t rs_repair_symbols = 4;
  /// Fountain: scheduled coded symbols = ceil(k * (1 + overhead)).
  double fountain_overhead = 0.25;
  /// Robust-soliton parameters (Luby's c and delta).
  double soliton_c = 0.1;
  double soliton_delta = 0.5;
  /// Per-tag seed of the fountain neighbour streams; both ends must agree.
  std::uint64_t seed = 1;

  /// Coded symbols scheduled per block before any repair request.
  std::size_t scheduled_symbols() const;
  /// Payload bits of one coded tag packet (header + symbol bytes).
  std::size_t packet_payload_bits() const;
  /// Source bits carried by one decoded block.
  std::size_t block_payload_bits() const;
};

/// Header carried in every coded tag packet: 16-bit block id, 16-bit
/// encoding-symbol id (ESI), both MSB-first via bits_to_uint/append_uint.
inline constexpr std::size_t erasure_header_bits = 32;

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

// --- LT fountain with deterministic robust soliton ----------------------

/// Robust-soliton probability mass function over degrees 1..k (Luby):
/// ideal soliton rho plus the spike/tail tau, normalized.
std::vector<double> robust_soliton_pmf(std::size_t k, double c, double delta);

/// Deterministic neighbour set of coded symbol `esi` of `block`: ESIs
/// below k form a systematic prefix ({esi}); later ESIs draw a degree
/// from the robust soliton and sample distinct source indices, all from
/// an rng seeded by (seed, block, esi) only.
std::vector<std::size_t> lt_neighbors(const erasure_spec& spec,
                                      std::uint32_t block, std::uint32_t esi);

/// XOR-encode one fountain symbol from the block's source bytes
/// (row-major, k * symbol_bytes).
std::vector<std::uint8_t> lt_encode_symbol(const erasure_spec& spec,
                                           std::span<const std::uint8_t> data,
                                           std::uint32_t block,
                                           std::uint32_t esi);

/// Incremental fountain decoder for one block: feed received symbols in
/// any order; solves by elimination over GF(2) as equations arrive.
class lt_decoder {
 public:
  lt_decoder(std::size_t k, std::size_t symbol_bytes);

  /// Add one received coded symbol (its neighbour set and payload).
  /// Redundant (linearly dependent) symbols are absorbed silently.
  /// Returns true once the block is fully decodable.
  bool add_symbol(std::span<const std::size_t> neighbors,
                  std::span<const std::uint8_t> payload);

  bool complete() const { return rank_ == k_; }
  std::size_t rank() const { return rank_; }
  std::size_t symbols_received() const { return received_; }

  /// The k * symbol_bytes source bytes; call only when complete().
  std::vector<std::uint8_t> data() const;

 private:
  struct row {
    std::vector<std::uint64_t> mask;   ///< k-bit neighbour indicator
    std::vector<std::uint8_t> payload;
  };
  bool mask_bit(const std::vector<std::uint64_t>& mask, std::size_t i) const;

  std::size_t k_ = 0;
  std::size_t symbol_bytes_ = 0;
  std::size_t words_ = 0;
  std::size_t rank_ = 0;
  std::size_t received_ = 0;
  std::vector<std::optional<row>> pivots_;  ///< pivot row per source index
};

}  // namespace backfi::phy
