#include "phy/constellation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "dsp/math_util.h"
#include "phy/demod_kernels.h"

namespace backfi::phy {

void constellation::map_into(std::span<const std::uint8_t> bits,
                             std::span<cplx> out) const {
  if (bits.size() % bits_per_symbol != 0)
    throw std::invalid_argument("constellation::map: bits not a multiple of symbol size");
  const std::size_t n_sym = bits.size() / bits_per_symbol;
  if (out.size() != n_sym)
    throw std::invalid_argument("constellation::map_into: output size mismatch");

  // Label -> point lookup; all built-ins fit the stack table (<= 64-QAM).
  std::array<std::size_t, 64> small_table{};
  std::vector<std::size_t> big_table;
  std::size_t* by_label = small_table.data();
  if (points.size() > small_table.size()) {
    big_table.resize(points.size());
    by_label = big_table.data();
  }
  for (std::size_t i = 0; i < points.size(); ++i) by_label[labels[i]] = i;

  for (std::size_t s = 0; s < n_sym; ++s) {
    std::uint32_t label = 0;
    for (std::size_t b = 0; b < bits_per_symbol; ++b)
      label = (label << 1) | (bits[s * bits_per_symbol + b] & 1u);
    out[s] = points[by_label[label]];
  }
}

std::uint32_t constellation::slice(cplx y) const {
  // Nearest-point search in the AVX2 kernel TU; same result as the scalar
  // ascending scan with strict `<` (first point wins ties).
  return labels[detail::nearest_point(points.data(), points.size(), y)];
}

void constellation::demap_llr(cplx y, double noise_var,
                              std::vector<double>& out) const {
  out.assign(bits_per_symbol, 0.0);
  const double inv_var = 1.0 / std::max(noise_var, 1e-30);
  // Max-log: LLR_b = (min over points with bit=1 of d^2 - min with bit=0) / var.
  std::vector<double> min0(bits_per_symbol, std::numeric_limits<double>::infinity());
  std::vector<double> min1(bits_per_symbol, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = std::norm(y - points[i]);
    for (std::size_t b = 0; b < bits_per_symbol; ++b) {
      const bool bit = ((labels[i] >> (bits_per_symbol - 1 - b)) & 1u) != 0;
      auto& slot = bit ? min1[b] : min0[b];
      slot = std::min(slot, d);
    }
  }
  for (std::size_t b = 0; b < bits_per_symbol; ++b)
    out[b] = (min1[b] - min0[b]) * inv_var;  // positive favours bit 0
}

void constellation::demap_llr_stream_into(std::span<const cplx> symbols,
                                          double noise_var,
                                          std::vector<double>& out) const {
  out.resize(symbols.size() * bits_per_symbol);
  if (bits_per_symbol > 8) {
    // No built-in constellation is this wide; keep the per-symbol path for
    // exotic user-defined ones rather than capping the stack minima.
    std::vector<double> per_symbol;
    double* w = out.data();
    for (const cplx& y : symbols) {
      demap_llr(y, noise_var, per_symbol);
      std::copy(per_symbol.begin(), per_symbol.end(), w);
      w += bits_per_symbol;
    }
    return;
  }
  // Same max-log arithmetic as demap_llr, run by the kernel TU with the
  // per-bit minima on the stack and LLRs written straight into the
  // presized output (AVX2: four symbols per vector, same minimum sequence).
  const double inv_var = 1.0 / std::max(noise_var, 1e-30);
  detail::demap_llr_max_log(points.data(), labels.data(), points.size(),
                            bits_per_symbol, symbols.data(), symbols.size(),
                            inv_var, out.data());
}

std::uint32_t gray_encode(std::uint32_t v) { return v ^ (v >> 1); }

std::uint32_t gray_decode(std::uint32_t g) {
  std::uint32_t v = 0;
  for (; g; g >>= 1) v ^= g;
  return v;
}

namespace {

/// 802.11 per-axis gray PAM levels: value of `bits` (MSB first) -> level.
/// Clause 17.3.5.8: e.g. 16-QAM axis: 00->-3, 01->-1, 11->+1, 10->+3.
double pam_level(std::uint32_t bits, std::size_t n_bits) {
  switch (n_bits) {
    case 1:
      return bits ? 1.0 : -1.0;
    case 2: {
      static constexpr double lut[4] = {-3.0, -1.0, 3.0, 1.0};  // 00,01,10,11
      return lut[bits];
    }
    case 3: {
      static constexpr double lut[8] = {-7.0, -5.0, -1.0, -3.0,
                                        7.0,  5.0,  1.0,  3.0};  // gray
      return lut[bits];
    }
    default:
      throw std::logic_error("pam_level: unsupported axis size");
  }
}

constellation make_wifi(std::size_t bits_per_symbol) {
  constellation c;
  c.bits_per_symbol = bits_per_symbol;
  const std::size_t n_points = std::size_t{1} << bits_per_symbol;
  c.points.resize(n_points);
  c.labels.resize(n_points);

  if (bits_per_symbol == 1) {
    // BPSK: bit 0 -> -1, bit 1 -> +1 (802.11 convention), Q = 0.
    c.points = {cplx{-1.0, 0.0}, cplx{1.0, 0.0}};
    c.labels = {0u, 1u};
    return c;
  }

  const std::size_t axis_bits = bits_per_symbol / 2;
  // Normalization per 802.11: QPSK 1/sqrt(2), 16-QAM 1/sqrt(10), 64-QAM 1/sqrt(42).
  const double k_mod = axis_bits == 1 ? 1.0 / std::sqrt(2.0)
                       : axis_bits == 2 ? 1.0 / std::sqrt(10.0)
                                        : 1.0 / std::sqrt(42.0);
  for (std::uint32_t label = 0; label < n_points; ++label) {
    // First axis_bits bits (MSB side) -> I, remaining -> Q.
    const std::uint32_t i_bits = label >> axis_bits;
    const std::uint32_t q_bits = label & ((1u << axis_bits) - 1u);
    c.points[label] =
        cplx{pam_level(i_bits, axis_bits), pam_level(q_bits, axis_bits)} * k_mod;
    c.labels[label] = label;
  }
  return c;
}

constellation make_psk(std::size_t order) {
  constellation c;
  c.bits_per_symbol = [&] {
    switch (order) {
      case 2: return std::size_t{1};
      case 4: return std::size_t{2};
      case 8: return std::size_t{3};
      case 16: return std::size_t{4};
      default: throw std::invalid_argument("psk order must be 2/4/8/16");
    }
  }();
  c.points.resize(order);
  c.labels.resize(order);
  for (std::uint32_t k = 0; k < order; ++k) {
    c.points[k] = dsp::phasor(two_pi * static_cast<double>(k) /
                              static_cast<double>(order));
    c.labels[k] = gray_encode(k);  // adjacent phases differ in one bit
  }
  return c;
}

}  // namespace

const constellation& wifi_constellation(std::size_t bits_per_symbol) {
  static const std::map<std::size_t, constellation> cache = [] {
    std::map<std::size_t, constellation> m;
    for (std::size_t b : {1u, 2u, 4u, 6u}) m.emplace(b, make_wifi(b));
    return m;
  }();
  const auto it = cache.find(bits_per_symbol);
  if (it == cache.end())
    throw std::invalid_argument("wifi_constellation: bits_per_symbol must be 1/2/4/6");
  return it->second;
}

const constellation& psk_constellation(std::size_t order) {
  static const std::map<std::size_t, constellation> cache = [] {
    std::map<std::size_t, constellation> m;
    for (std::size_t o : {2u, 4u, 8u, 16u}) m.emplace(o, make_psk(o));
    return m;
  }();
  const auto it = cache.find(order);
  if (it == cache.end())
    throw std::invalid_argument("psk_constellation: order must be 2/4/8/16");
  return it->second;
}

}  // namespace backfi::phy
