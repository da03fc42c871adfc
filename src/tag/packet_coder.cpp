#include "tag/packet_coder.h"

#include <algorithm>
#include <stdexcept>

namespace backfi::tag {

packet_coder::packet_coder(const phy::erasure_spec& spec) : spec_(spec) {
  if (spec_.block_symbols == 0)
    throw std::invalid_argument("packet_coder: block_symbols must be positive");
  if (spec_.symbol_bytes == 0)
    throw std::invalid_argument("packet_coder: symbol_bytes must be positive");
  if (spec_.scheduled_symbols() > 255)
    throw std::invalid_argument(
        "packet_coder: RS block exceeds the 255-symbol GF(256) field");
}

std::uint32_t packet_coder::push_block(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != spec_.block_symbols * spec_.symbol_bytes)
    throw std::invalid_argument("packet_coder: block size mismatch");
  if (next_block_id_ >= phy::max_block_ids)
    throw std::overflow_error(
        "packet_coder: block id does not fit the 16-bit packet header");
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
    packet.bits = phy::pack_coded_packet(
        b.id, esi,
        phy::rs_encode_symbol(b.data, spec_.block_symbols, spec_.symbol_bytes,
                              esi));
    ++stats_.symbols_sent;
    return packet;
  }
  throw std::logic_error("packet_coder::next_packet: nothing to send");
}

std::size_t packet_coder::request_repair(std::uint32_t block,
                                         std::size_t symbols) {
  open_block* b = find(block);
  if (!b || symbols == 0) return 0;
  // Fresh field points only: 255 distinct ESIs exist in GF(256).
  const std::size_t granted =
      std::min(symbols, std::size_t{255} - b->scheduled);
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
