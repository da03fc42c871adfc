#include "tag/tag_device.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "phy/constellation.h"
#include "phy/crc32.h"
#include "phy/prbs.h"

namespace backfi::tag {

namespace {

std::size_t samples_per_symbol_of(const tag_rate_config& rate) {
  return static_cast<std::size_t>(
      std::llround(sample_rate_hz / rate.symbol_rate_hz));
}

// Below max_payload_bits neither the CRC addition nor the coded length can
// overflow.
std::size_t payload_symbols_of(const tag_rate_config& rate,
                               std::size_t n_payload_bits) {
  const std::size_t coded =
      phy::coded_length(n_payload_bits + phy::crc32_width, rate.coding);
  const std::size_t bps = bits_per_symbol(rate.modulation);
  return (coded + bps - 1) / bps;
}

}  // namespace

const char* to_string(config_error error) {
  switch (error) {
    case config_error::none: return "none";
    case config_error::bad_symbol_rate: return "bad_symbol_rate";
    case config_error::unsupported_coding: return "unsupported_coding";
    case config_error::frame_not_representable:
      return "frame_not_representable";
  }
  return "unknown";
}

config_error tag_config::validate() const {
  // A whole number of samples per symbol, at least one and small enough
  // for llround; NaN, zero and negative rates fail the same comparisons.
  const double sps = sample_rate_hz / rate.symbol_rate_hz;
  if (!(sps >= 1.0 && sps < 0x1p62) || std::abs(sps - std::round(sps)) > 1e-6)
    return config_error::bad_symbol_rate;
  if (rate.coding == phy::code_rate::three_quarters)
    return config_error::unsupported_coding;
  if (!frame_layout(*this, 0)) return config_error::frame_not_representable;
  return config_error::none;
}

void validate_or_throw(const tag_config& config, const char* where) {
  const config_error error = config.validate();
  if (error != config_error::none)
    throw std::invalid_argument(std::string(where) + ": invalid tag_config (" +
                                to_string(error) + ")");
}

std::optional<frame> frame_layout(const tag_config& config,
                                  std::size_t payload_bits,
                                  std::size_t origin) {
  if (payload_bits > max_payload_bits) return std::nullopt;
  frame f;
  f.samples_per_symbol = samples_per_symbol_of(config.rate);
  f.payload_symbols = payload_symbols_of(config.rate, payload_bits);
  std::size_t silent = 0, preamble = 0, sync = 0, payload = 0;
  if (__builtin_mul_overflow(config.silent_us, samples_per_us, &silent) ||
      __builtin_mul_overflow(config.preamble_us, samples_per_us, &preamble) ||
      __builtin_mul_overflow(config.sync_symbols, f.samples_per_symbol, &sync) ||
      __builtin_mul_overflow(f.payload_symbols, f.samples_per_symbol,
                             &payload) ||
      __builtin_add_overflow(origin, silent, &f.preamble_start) ||
      __builtin_add_overflow(f.preamble_start, preamble, &f.sync_start) ||
      __builtin_add_overflow(f.sync_start, sync, &f.data_start) ||
      __builtin_add_overflow(f.data_start, payload, &f.data_end))
    return std::nullopt;
  return f;
}

tag_device::tag_device(const tag_config& config) : config_(config) {
  validate_or_throw(config_, "tag_device");
}

std::size_t tag_device::samples_per_symbol() const {
  return samples_per_symbol_of(config_.rate);
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
  return payload_symbols_of(config_.rate, n_payload_bits);
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
  const std::optional<frame> layout =
      frame_layout(config_, payload.size(), time_origin);
  if (!layout)
    throw std::invalid_argument("tag_device: frame not representable");
  const std::size_t sps = layout->samples_per_symbol;
  out.reflection.assign(total_samples, cplx{0.0, 0.0});
  out.samples_per_symbol = sps;
  out.silent_start = time_origin;
  out.preamble_start = layout->preamble_start;
  out.sync_start = layout->sync_start;
  out.data_start = layout->data_start;

  phase_modulator modulator(psk_order(config_.rate.modulation),
                            config_.insertion_loss_db);
  const auto& constellation = phy::psk_constellation(modulator.order());

  // Info bits: payload + CRC-32; coded at the configured rate and padded
  // to the symbol boundary.
  out.info_bits.assign(payload.begin(), payload.end());
  phy::append_crc32(out.info_bits);
  phy::bitvec coded =
      phy::puncture(phy::conv_encode(out.info_bits), config_.rate.coding);
  const std::size_t bps = modulator.bits_per_symbol();
  coded.resize(layout->payload_symbols * bps, 0);

  // Constant-phase estimation preamble (leaf 0).
  if (out.preamble_start < total_samples) {
    const cplx pre = modulator.select(constellation.labels[0]);
    const std::size_t end = std::min(out.sync_start, total_samples);
    for (std::size_t n = out.preamble_start; n < end; ++n) out.reflection[n] = pre;
  }

  // Whole symbols from `cursor` on, until one no longer fits before
  // total_samples.
  std::size_t cursor = out.sync_start;
  auto emit_symbol = [&](std::uint32_t label) -> bool {
    if (cursor + sps > total_samples) return false;
    const cplx r = modulator.select(label);
    for (std::size_t n = cursor; n < cursor + sps; ++n) out.reflection[n] = r;
    cursor += sps;
    return true;
  };
  for (const std::uint32_t label : sync_labels())
    if (!emit_symbol(label)) break;

  cursor = out.data_start;
  out.payload_labels.clear();
  for (std::size_t s = 0; s < layout->payload_symbols; ++s) {
    std::uint32_t label = 0;
    for (std::size_t b = 0; b < bps; ++b)
      label = (label << 1) | (coded[s * bps + b] & 1u);
    if (!emit_symbol(label)) break;
    out.payload_labels.push_back(label);
  }
  out.n_payload_symbols = out.payload_labels.size();
  out.data_end = cursor;
  out.switch_toggles = modulator.toggle_count();
  out.energy_pj =
      energy_per_bit_pj(config_.rate) * static_cast<double>(out.info_bits.size());
}

}  // namespace backfi::tag
