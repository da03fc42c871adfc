#include "tag/packet_coder.h"

#include <algorithm>
#include <stdexcept>

namespace backfi::tag {

packet_coder::packet_coder(const phy::erasure_spec& spec) : spec_(spec) {
  if (spec_.block_symbols == 0)
    throw std::invalid_argument("packet_coder: block_symbols must be positive");
  if (spec_.symbol_bytes == 0)
    throw std::invalid_argument("packet_coder: symbol_bytes must be positive");
  if (spec_.scheme == phy::erasure_scheme::reed_solomon &&
      spec_.scheduled_symbols() > 255)
    throw std::invalid_argument(
        "packet_coder: RS block exceeds the 255-symbol GF(256) field");
  if (spec_.scheme == phy::erasure_scheme::fountain &&
      !(spec_.soliton_delta > 0.0 && spec_.soliton_delta < 1.0))
    throw std::invalid_argument(
        "packet_coder: soliton_delta must lie in (0, 1)");
}

std::uint32_t packet_coder::push_block(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != spec_.block_symbols * spec_.symbol_bytes)
    throw std::invalid_argument("packet_coder: block size mismatch");
  open_block b;
  b.id = next_block_id_++;
  b.data.assign(bytes.begin(), bytes.end());
  b.scheduled = spec_.scheduled_symbols();
  blocks_.push_back(std::move(b));
  return blocks_.back().id;
}

packet_coder::open_block* packet_coder::find(std::uint32_t block) {
  for (auto& b : blocks_)
    if (b.id == block) return &b;
  return nullptr;
}

bool packet_coder::has_packet() const {
  for (const auto& b : blocks_)
    if (b.next_esi < b.scheduled) return true;
  return false;
}

std::vector<std::uint8_t> packet_coder::encode_symbol(const open_block& b,
                                                      std::uint32_t esi) const {
  switch (spec_.scheme) {
    case phy::erasure_scheme::none: {
      const auto row = std::span(b.data).subspan(esi * spec_.symbol_bytes,
                                                 spec_.symbol_bytes);
      return {row.begin(), row.end()};
    }
    case phy::erasure_scheme::reed_solomon:
      return phy::rs_encode_symbol(b.data, spec_.block_symbols,
                                   spec_.symbol_bytes, esi);
    case phy::erasure_scheme::fountain:
      return phy::lt_encode_symbol(spec_, b.data, b.id, esi);
  }
  throw std::logic_error("packet_coder: unknown scheme");
}

phy::coded_packet packet_coder::next_packet() {
  if (blocks_.empty())
    throw std::logic_error("packet_coder::next_packet: no open blocks");
  // Stripe: scan from the round-robin cursor for the next block with an
  // unsent symbol, so burst losses spread across in-flight blocks.
  for (std::size_t step = 0; step < blocks_.size(); ++step) {
    const std::size_t i = (stripe_cursor_ + step) % blocks_.size();
    open_block& b = blocks_[i];
    if (b.next_esi >= b.scheduled) continue;
    stripe_cursor_ = (i + 1) % blocks_.size();
    const auto esi = static_cast<std::uint32_t>(b.next_esi++);
    phy::coded_packet packet;
    packet.block = b.id;
    packet.esi = esi;
    packet.bits = phy::pack_coded_packet(b.id, esi, encode_symbol(b, esi));
    ++stats_.symbols_sent;
    return packet;
  }
  throw std::logic_error("packet_coder::next_packet: nothing to send");
}

std::size_t packet_coder::request_repair(std::uint32_t block,
                                         std::size_t symbols) {
  open_block* b = find(block);
  if (!b || symbols == 0) return 0;
  std::size_t granted = 0;
  switch (spec_.scheme) {
    case phy::erasure_scheme::none:
      granted = 0;  // no code: nothing beyond the source symbols exists
      break;
    case phy::erasure_scheme::reed_solomon:
      // Fresh field points only: 255 distinct ESIs exist in GF(256).
      granted = std::min(symbols, std::size_t{255} - b->scheduled);
      break;
    case phy::erasure_scheme::fountain:
      granted = symbols;  // rateless: the stream never runs dry
      break;
  }
  b->scheduled += granted;
  stats_.repair_symbols_granted += granted;
  return granted;
}

void packet_coder::complete_block(std::uint32_t block) {
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->id != block) continue;
    blocks_.erase(it);
    ++stats_.blocks_completed;
    if (stripe_cursor_ >= blocks_.size()) stripe_cursor_ = 0;
    return;
  }
}

void packet_coder::abandon_block(std::uint32_t block) {
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->id != block) continue;
    blocks_.erase(it);
    ++stats_.blocks_abandoned;
    if (stripe_cursor_ >= blocks_.size()) stripe_cursor_ = 0;
    return;
  }
}

std::optional<std::uint32_t> packet_coder::exhausted_block() const {
  for (const auto& b : blocks_)
    if (b.next_esi >= b.scheduled) return b.id;
  return std::nullopt;
}

}  // namespace backfi::tag
