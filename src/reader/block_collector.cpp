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

block_collector::block_state& block_collector::state_of(std::uint32_t block) {
  auto [it, inserted] = blocks_.try_emplace(block);
  if (inserted && spec_.scheme == phy::erasure_scheme::fountain)
    it->second.lt = std::make_unique<phy::lt_decoder>(spec_.block_symbols,
                                                      spec_.symbol_bytes);
  return it->second;
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
  block_state& s = state_of(block);
  if (s.status == phy::block_status::pending) {
    switch (spec_.scheme) {
      case phy::erasure_scheme::none:
      case phy::erasure_scheme::reed_solomon: {
        const bool seen =
            std::find(s.esis.begin(), s.esis.end(), esi) != s.esis.end();
        if (seen) {
          ++stats_.duplicate_symbols;
          break;
        }
        s.esis.push_back(esi);
        s.symbols.push_back(std::move(symbol));
        ++s.useful_symbols;
        if (spec_.scheme == phy::erasure_scheme::none) {
          // Every source symbol must arrive; k distinct ESIs complete.
          std::size_t direct = 0;
          for (const std::uint32_t e : s.esis)
            direct += e < spec_.block_symbols ? 1 : 0;
          if (direct == spec_.block_symbols) {
            s.data.assign(spec_.block_symbols * spec_.symbol_bytes, 0);
            for (std::size_t i = 0; i < s.esis.size(); ++i) {
              if (s.esis[i] >= spec_.block_symbols) continue;
              std::copy(s.symbols[i].begin(), s.symbols[i].end(),
                        s.data.begin() +
                            static_cast<std::ptrdiff_t>(s.esis[i] *
                                                        spec_.symbol_bytes));
            }
            s.status = phy::block_status::decoded;
          }
        } else if (s.esis.size() >= spec_.block_symbols) {
          auto decoded = phy::rs_decode_block(
              s.esis, s.symbols, spec_.block_symbols, spec_.symbol_bytes);
          if (decoded) {
            s.data = std::move(*decoded);
            s.status = phy::block_status::decoded;
          }
        }
        break;
      }
      case phy::erasure_scheme::fountain: {
        const std::size_t before = s.lt->rank();
        const bool done = s.lt->add_symbol(
            phy::lt_neighbors(spec_, block, esi), symbol);
        if (s.lt->rank() == before) ++stats_.duplicate_symbols;
        else ++s.useful_symbols;
        if (done) {
          s.data = s.lt->data();
          s.status = phy::block_status::decoded;
          s.lt.reset();
        }
        break;
      }
    }
    if (s.status == phy::block_status::decoded) ++stats_.blocks_decoded;
  } else if (s.status == phy::block_status::decoded) {
    ++stats_.duplicate_symbols;  // late symbol for a finished block
  }

  block_report report;
  report.block = block;
  report.status = s.status;
  report.symbols_received = s.useful_symbols;
  if (s.status == phy::block_status::decoded) report.data = s.data;
  return report;
}

phy::block_status block_collector::status(std::uint32_t block) const {
  const auto it = blocks_.find(block);
  return it == blocks_.end() ? phy::block_status::pending : it->second.status;
}

void block_collector::abandon(std::uint32_t block) {
  block_state& s = state_of(block);
  if (s.status == phy::block_status::unrecoverable) return;
  if (s.status == phy::block_status::decoded) return;  // too late to abandon
  s.status = phy::block_status::unrecoverable;
  s.lt.reset();
  ++stats_.blocks_abandoned;
}

}  // namespace backfi::reader
