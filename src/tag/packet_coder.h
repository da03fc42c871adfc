// Tag-side packet-level erasure encoder: turns queued source blocks into
// the stream of coded tag packets the wild-traffic link actually sends.
//
// The coder stripes coded symbols round-robin across the open blocks, so
// one burst of dead air costs every in-flight block a few symbols instead
// of costing one block everything — the packet-level mirror of the bit
// interleaver inside each packet. The reader's feedback loop (through
// mac::link_supervisor) drives request_repair / complete_block /
// abandon_block; the coder itself never retransmits a specific symbol.
// Symbols are systematic RS (phy/erasure_code.h).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "phy/erasure_code.h"

namespace backfi::tag {

/// Per-coder accounting.
struct packet_coder_stats {
  std::size_t symbols_sent = 0;       ///< packets produced by next_packet
  std::size_t repair_symbols_granted = 0;
  std::size_t blocks_completed = 0;
  std::size_t blocks_abandoned = 0;
};

class packet_coder {
 public:
  /// `spec` is the code geometry both ends agreed on. Throws
  /// std::invalid_argument for degenerate geometry (zero block_symbols /
  /// symbol_bytes, blocks that cannot fit the 255-symbol GF(256) field).
  explicit packet_coder(const phy::erasure_spec& spec);

  const phy::erasure_spec& spec() const { return spec_; }

  /// Queue one source block (exactly spec.block_symbols * symbol_bytes
  /// bytes). Blocks are numbered in push order starting at 0. Throws
  /// std::overflow_error instead of numbering a block past the 16-bit
  /// header field (phy::max_block_ids blocks per coder).
  std::uint32_t push_block(std::span<const std::uint8_t> bytes);

  /// True when next_packet() can produce a symbol: some open block still
  /// has scheduled (or repair-granted) symbols to send.
  bool has_packet() const;

  /// Produce the next coded packet, striping round-robin across open
  /// blocks. Throws std::logic_error when !has_packet().
  phy::coded_packet next_packet();

  /// Grant `symbols` extra repair symbols to an open block (reader asked
  /// for more). Returns the number actually granted: the field runs out of
  /// points at 255 total symbols.
  std::size_t request_repair(std::uint32_t block, std::size_t symbols);

  /// Reader decoded the block: stop sending its symbols.
  void complete_block(std::uint32_t block);

  /// Give up on a block (repair budget exhausted at the supervisor).
  void abandon_block(std::uint32_t block);

  /// Oldest open block that has sent every scheduled+granted symbol and
  /// is still waiting on the reader (repair-request trigger).
  std::optional<std::uint32_t> exhausted_block() const;

  const packet_coder_stats& stats() const { return stats_; }

 private:
  struct open_block {
    std::uint32_t id = 0;
    std::vector<std::uint8_t> data;    ///< k * symbol_bytes source bytes
    std::size_t scheduled = 0;         ///< symbols budgeted (incl. repair)
    std::size_t next_esi = 0;          ///< first unsent symbol index
  };

  open_block* find(std::uint32_t block);

  phy::erasure_spec spec_;
  std::deque<open_block> blocks_;
  std::uint32_t next_block_id_ = 0;
  std::size_t stripe_cursor_ = 0;  ///< round-robin position over blocks_
  packet_coder_stats stats_;
};

}  // namespace backfi::tag
