#include "tag/energy_model.h"

#include <array>
#include <cmath>
#include <stdexcept>

namespace backfi::tag {

namespace {

// Calibrated model constants (see header). u/v are unit-less fractions of
// the reference EPB; q* are in Hz (static power expressed as an equivalent
// toggle rate of the reference energy).
constexpr double kDynamicBase = 0.137;     // memory read + encoder, per info bit
constexpr double kDynamicPerSwitch = 0.289;  // per switch toggle, per channel symbol
constexpr double kStaticPerBitLane = 125050.0;   // q0 [Hz]
constexpr double kStaticPerSwitch = 17450.0;     // q1 [Hz]
constexpr double kStaticPuncturing = 41727.0;    // q2 [Hz], rate-2/3 logic only

constexpr std::array<double, 6> kSymbolRates = {1e4, 1e5, 5e5, 1e6, 2e6, 2.5e6};

constexpr std::array<tag_rate_config, 6> kFig7Configs = {{
    {tag_modulation::bpsk, phy::code_rate::half, 0.0},
    {tag_modulation::bpsk, phy::code_rate::two_thirds, 0.0},
    {tag_modulation::qpsk, phy::code_rate::half, 0.0},
    {tag_modulation::qpsk, phy::code_rate::two_thirds, 0.0},
    {tag_modulation::psk16, phy::code_rate::half, 0.0},
    {tag_modulation::psk16, phy::code_rate::two_thirds, 0.0},
}};

}  // namespace

std::size_t bits_per_symbol(tag_modulation mod) {
  switch (mod) {
    case tag_modulation::bpsk: return 1;
    case tag_modulation::qpsk: return 2;
    case tag_modulation::psk8: return 3;
    case tag_modulation::psk16: return 4;
  }
  throw std::logic_error("unknown modulation");
}

std::size_t psk_order(tag_modulation mod) { return std::size_t{1} << bits_per_symbol(mod); }

std::size_t switch_count(tag_modulation mod) { return psk_order(mod) - 1; }

const char* modulation_name(tag_modulation mod) {
  switch (mod) {
    case tag_modulation::bpsk: return "BPSK";
    case tag_modulation::qpsk: return "QPSK";
    case tag_modulation::psk8: return "8PSK";
    case tag_modulation::psk16: return "16PSK";
  }
  throw std::logic_error("unknown modulation");
}

double throughput_bps(const tag_rate_config& config) {
  return static_cast<double>(bits_per_symbol(config.modulation)) *
         phy::code_rate_value(config.coding) * config.symbol_rate_hz;
}

namespace {

double dynamic_repb(const tag_rate_config& config) {
  const double b = static_cast<double>(bits_per_symbol(config.modulation));
  const double n_sw = static_cast<double>(switch_count(config.modulation));
  const double r = phy::code_rate_value(config.coding);
  return kDynamicBase + kDynamicPerSwitch * n_sw / (b * r);
}

double static_repb(const tag_rate_config& config) {
  if (!std::isfinite(config.symbol_rate_hz) || !(config.symbol_rate_hz > 0.0))
    throw std::invalid_argument(
        "energy model: symbol rate must be finite and positive");
  const double b = static_cast<double>(bits_per_symbol(config.modulation));
  const double n_sw = static_cast<double>(switch_count(config.modulation));
  const double r = phy::code_rate_value(config.coding);
  const bool punctured = config.coding != phy::code_rate::half;
  const double static_power = kStaticPerBitLane * b + kStaticPerSwitch * n_sw +
                              (punctured ? kStaticPuncturing * b : 0.0);
  // Static energy accrues over the symbol time and is amortized over the
  // b*r information bits each symbol carries.
  return static_power / (b * r * config.symbol_rate_hz);
}

}  // namespace

double relative_energy_per_bit(const tag_rate_config& config) {
  return dynamic_repb(config) + static_repb(config);
}

double energy_per_bit_pj(const tag_rate_config& config) {
  return relative_energy_per_bit(config) * reference_epb_pj;
}

std::span<const double> standard_symbol_rates() { return kSymbolRates; }

std::span<const tag_rate_config> fig7_configs() { return kFig7Configs; }

}  // namespace backfi::tag
