#include "reader/block_collector.h"

#include <algorithm>
#include <stdexcept>

namespace backfi::reader {

block_collector::block_collector(const phy::erasure_spec& spec) : spec_(spec) {
  if (spec_.block_symbols == 0)
    throw std::invalid_argument(
        "block_collector: block_symbols must be positive");
  if (spec_.symbol_bytes == 0)
    throw std::invalid_argument(
        "block_collector: symbol_bytes must be positive");
}

block_report block_collector::accept(
    std::span<const std::uint8_t> payload_bits) {
  std::uint32_t block = 0, esi = 0;
  std::vector<std::uint8_t> symbol;
  if (!phy::unpack_coded_packet(payload_bits, spec_, block, esi, symbol)) {
    ++stats_.packets_rejected;
    block_report bad;
    bad.block = 0xffffffffu;
    return bad;
  }
  ++stats_.packets_accepted;
  block_state& s = blocks_[block];
  if (s.status == phy::block_status::pending) {
    if (std::find(s.esis.begin(), s.esis.end(), esi) != s.esis.end()) {
      ++stats_.duplicate_symbols;
    } else {
      s.esis.push_back(esi);
      s.symbols.push_back(std::move(symbol));
      if (s.esis.size() >= spec_.block_symbols) {
        auto decoded = phy::rs_decode_block(
            s.esis, s.symbols, spec_.block_symbols, spec_.symbol_bytes);
        if (decoded) {
          s.data = std::move(*decoded);
          s.status = phy::block_status::decoded;
          ++stats_.blocks_decoded;
        }
      }
    }
  } else if (s.status == phy::block_status::decoded) {
    ++stats_.duplicate_symbols;  // late symbol for a finished block
  }

  block_report report;
  report.block = block;
  report.status = s.status;
  report.symbols_received = s.esis.size();
  if (s.status == phy::block_status::decoded) report.data = s.data;
  return report;
}

phy::block_status block_collector::status(std::uint32_t block) const {
  const auto it = blocks_.find(block);
  return it == blocks_.end() ? phy::block_status::pending : it->second.status;
}

void block_collector::abandon(std::uint32_t block) {
  block_state& s = blocks_[block];
  if (s.status == phy::block_status::unrecoverable) return;
  if (s.status == phy::block_status::decoded) return;  // too late to abandon
  s.status = phy::block_status::unrecoverable;
  ++stats_.blocks_abandoned;
}

}  // namespace backfi::reader
