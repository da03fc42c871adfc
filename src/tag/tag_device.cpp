#include "tag/tag_device.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "phy/constellation.h"
#include "phy/crc32.h"
#include "phy/prbs.h"

namespace backfi::tag {

namespace {

constexpr std::size_t samples_per_us = 20;  // 20 MS/s baseband

}  // namespace

tag_device::tag_device(const tag_config& config) : config_(config) {
  const double sps = sample_rate_hz / config.rate.symbol_rate_hz;
  if (std::abs(sps - std::round(sps)) > 1e-6 || sps < 1.0)
    throw std::invalid_argument(
        "tag_device: symbol rate must divide the 20 MS/s sample rate");
  if (config.rate.coding == phy::code_rate::three_quarters)
    throw std::invalid_argument("tag_device: tag supports rates 1/2 and 2/3 only");
}

std::size_t tag_device::samples_per_symbol() const {
  return static_cast<std::size_t>(
      std::llround(sample_rate_hz / config_.rate.symbol_rate_hz));
}

std::vector<std::uint32_t> tag_device::sync_labels() const {
  const std::size_t bps = bits_per_symbol(config_.rate.modulation);
  const phy::bitvec bits = phy::sync_sequence(config_.id, config_.sync_symbols * bps);
  std::vector<std::uint32_t> labels(config_.sync_symbols);
  for (std::size_t s = 0; s < config_.sync_symbols; ++s) {
    std::uint32_t label = 0;
    for (std::size_t b = 0; b < bps; ++b)
      label = (label << 1) | (bits[s * bps + b] & 1u);
    labels[s] = label;
  }
  return labels;
}

std::size_t tag_device::payload_symbols(std::size_t n_payload_bits) const {
  if (n_payload_bits > max_payload_bits)
    throw std::invalid_argument("tag_device: payload_bits above max_payload_bits");
  const std::size_t info_bits = n_payload_bits + 32;  // + CRC-32
  const std::size_t coded = phy::coded_length(info_bits, config_.rate.coding);
  const std::size_t bps = bits_per_symbol(config_.rate.modulation);
  return (coded + bps - 1) / bps;
}

tag_transmission tag_device::backscatter(std::span<const std::uint8_t> payload,
                                         std::size_t total_samples,
                                         std::size_t time_origin) const {
  tag_transmission out;
  backscatter_into(payload, total_samples, time_origin, out);
  return out;
}

void tag_device::backscatter_into(std::span<const std::uint8_t> payload,
                                  std::size_t total_samples,
                                  std::size_t time_origin,
                                  tag_transmission& out) const {
  out.reflection.resize(total_samples);
  std::fill(out.reflection.begin(), out.reflection.end(), cplx{0.0, 0.0});
  out.n_payload_symbols = 0;
  out.samples_per_symbol = samples_per_symbol();

  out.silent_start = time_origin;
  out.preamble_start = out.silent_start + config_.silent_us * samples_per_us;
  out.sync_start = out.preamble_start + config_.preamble_us * samples_per_us;
  out.data_start = out.sync_start + config_.sync_symbols * out.samples_per_symbol;

  phase_modulator modulator(psk_order(config_.rate.modulation),
                            config_.insertion_loss_db);
  const auto& constellation = phy::psk_constellation(modulator.order());

  // Info bits: payload + CRC-32; coded at the configured rate.
  out.info_bits.assign(payload.begin(), payload.end());
  phy::append_crc32(out.info_bits);
  const phy::bitvec mother = phy::conv_encode(out.info_bits);
  phy::bitvec coded = phy::puncture(mother, config_.rate.coding);
  const std::size_t bps = modulator.bits_per_symbol();
  while (coded.size() % bps != 0) coded.push_back(0);  // pad to symbol boundary

  // Constant-phase estimation preamble (leaf 0).
  if (out.preamble_start < total_samples) {
    const cplx pre = modulator.select(constellation.labels[0]);
    const std::size_t end = std::min(out.sync_start, total_samples);
    for (std::size_t n = out.preamble_start; n < end; ++n) out.reflection[n] = pre;
  }

  auto emit_symbol = [&](std::uint32_t label, std::size_t start) -> bool {
    if (start + out.samples_per_symbol > total_samples) return false;
    const cplx r = modulator.select(label);
    for (std::size_t n = start; n < start + out.samples_per_symbol; ++n)
      out.reflection[n] = r;
    return true;
  };

  // Sync word.
  std::size_t cursor = out.sync_start;
  for (const std::uint32_t label : sync_labels()) {
    if (!emit_symbol(label, cursor)) break;
    cursor += out.samples_per_symbol;
  }

  // Payload symbols (dropped once the excitation ends).
  cursor = out.data_start;
  out.payload_labels.clear();
  for (std::size_t s = 0; s * bps < coded.size(); ++s) {
    std::uint32_t label = 0;
    for (std::size_t b = 0; b < bps; ++b)
      label = (label << 1) | (coded[s * bps + b] & 1u);
    if (!emit_symbol(label, cursor)) break;
    cursor += out.samples_per_symbol;
    out.payload_labels.push_back(label);
  }
  out.n_payload_symbols = out.payload_labels.size();
  out.data_end = cursor;
  out.switch_toggles = modulator.toggle_count();
  out.energy_pj =
      energy_per_bit_pj(config_.rate) * static_cast<double>(out.info_bits.size());
}

}  // namespace backfi::tag
