// Reader-side reassembly of erasure-coded tag packets.
//
// The collector is the receive end of tag::packet_coder: every CRC-clean
// tag packet is parsed (block id, ESI, symbol payload) and folded into the
// per-block RS decoder state; the typed outcome (decoded / pending /
// unrecoverable) is what mac::link_supervisor's coded ladder consumes —
// a lost packet is an erasure the code absorbs, not a retransmission
// trigger. All decoding is deterministic in the arrival order.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "phy/erasure_code.h"

namespace backfi::reader {

/// State the collector keeps (and reports) for one source block.
struct block_report {
  std::uint32_t block = 0;
  phy::block_status status = phy::block_status::pending;
  std::size_t symbols_received = 0;  ///< distinct useful symbols folded in
  /// Source bytes (k * symbol_bytes); filled once status == decoded.
  std::vector<std::uint8_t> data;
};

struct block_collector_stats {
  std::size_t packets_accepted = 0;   ///< parsed and folded in
  std::size_t packets_rejected = 0;   ///< malformed / wrong length
  std::size_t duplicate_symbols = 0;  ///< redundant (already-known) symbols
  std::size_t blocks_decoded = 0;
  std::size_t blocks_abandoned = 0;
};

class block_collector {
 public:
  /// `spec` must match the tag's coder (same geometry).
  explicit block_collector(const phy::erasure_spec& spec);

  const phy::erasure_spec& spec() const { return spec_; }

  /// Fold one received payload (the decoded tag-packet bits) into the
  /// owning block. Returns the block's report after the update; a
  /// malformed payload yields a report with status pending and
  /// block == 0xffffffff (and bumps packets_rejected).
  block_report accept(std::span<const std::uint8_t> payload_bits);

  /// Current status of a block (pending if never seen).
  phy::block_status status(std::uint32_t block) const;

  /// Give up on a block: it reports unrecoverable from now on.
  void abandon(std::uint32_t block);

  const block_collector_stats& stats() const { return stats_; }

 private:
  struct block_state {
    phy::block_status status = phy::block_status::pending;
    std::vector<std::uint32_t> esis;  ///< distinct symbols collected
    std::vector<std::vector<std::uint8_t>> symbols;
    std::vector<std::uint8_t> data;
  };

  phy::erasure_spec spec_;
  std::map<std::uint32_t, block_state> blocks_;
  block_collector_stats stats_;
};

}  // namespace backfi::reader
