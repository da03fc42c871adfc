#include "wifi/ppdu.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "dsp/rng.h"
#include "phy/constellation.h"
#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/scrambler.h"
#include "wifi/ofdm.h"
#include "wifi/preamble.h"

namespace backfi::wifi {

phy::bitvec signal_info_bits(wifi_rate rate, std::size_t length_bytes) {
  if (length_bytes == 0 || length_bytes > 4095)
    throw std::invalid_argument("signal_info_bits: LENGTH must be 1..4095");
  const auto& p = params_for(rate);
  phy::bitvec bits;
  bits.reserve(18);
  // RATE: 4 bits, R1 first (stored MSB-first in signal_bits).
  for (int i = 3; i >= 0; --i)
    bits.push_back(static_cast<std::uint8_t>((p.signal_bits >> i) & 1u));
  bits.push_back(0);  // reserved
  // LENGTH: 12 bits, LSB first.
  for (int i = 0; i < 12; ++i)
    bits.push_back(static_cast<std::uint8_t>((length_bytes >> i) & 1u));
  // Even parity over the first 17 bits.
  std::uint8_t parity = 0;
  for (std::uint8_t b : bits) parity ^= b;
  bits.push_back(parity);
  return bits;  // the encoder's zero tail supplies the 6 SIGNAL tail bits
}

namespace {

// Per-rate tables of the packed data path. mother_bit[d * n_bpsc + b] is the
// index, within one OFDM symbol's 2 * n_dbps mother-code bits, of the bit
// carried as label bit b (MSB first) of data subcarrier d: the interleaver
// writes coded bit k to position forward[k], so position j carries coded
// bit inverse[j], and coded bit c is the c-th transmitted mother bit of the
// puncture pattern. Symbols start on pattern-period boundaries (n_cbps is
// a multiple of the kept bits per period), so one table serves every
// symbol. point_by_label is the constellation's label -> point lookup.
struct symbol_tables {
  std::array<std::uint16_t, 6 * n_data_subcarriers> mother_bit{};
  std::array<cplx, 64> point_by_label{};
};

symbol_tables build_tables(const rate_params& p) {
  symbol_tables t;
  const auto pattern = phy::puncture_pattern(p.coding);
  std::vector<std::uint16_t> mother_of_coded;
  mother_of_coded.reserve(p.n_cbps);
  for (std::size_t m = 0; mother_of_coded.size() < p.n_cbps; ++m)
    if (pattern[m % pattern.size()])
      mother_of_coded.push_back(static_cast<std::uint16_t>(m));
  const phy::interleaver il(p.n_cbps, p.n_bpsc);
  for (std::size_t k = 0; k < p.n_cbps; ++k)
    t.mother_bit[il.map_index(k)] = mother_of_coded[k];
  const phy::constellation& c = phy::wifi_constellation(p.n_bpsc);
  for (std::size_t i = 0; i < c.points.size(); ++i)
    t.point_by_label[c.labels[i]] = c.points[i];
  return t;
}

const symbol_tables& tables_for(wifi_rate rate) {
  static const std::array<symbol_tables, 8> tables = [] {
    std::array<symbol_tables, 8> out;
    for (const rate_params& p : all_rates())
      out[static_cast<std::size_t>(p.rate)] = build_tables(p);
    return out;
  }();
  return tables[static_cast<std::size_t>(rate)];
}

// Encode `in` (encoder input bytes, LSB-first, zero tail already in place;
// n_sym * n_dbps bits) and modulate its n_sym OFDM symbols, numbered from
// `first_symbol` for the pilot polarity, into `out`.
void modulate_coded(std::span<const std::uint8_t> in, const rate_params& p,
                    std::size_t n_sym, std::size_t first_symbol,
                    std::span<cplx> out) {
  thread_local std::vector<std::uint16_t> mother;
  mother.resize(in.size());
  phy::conv_encode_packed(in, mother);
  const symbol_tables& t = tables_for(p.rate);
  // Four symbols per modulate_symbols_into call, one pass of its transform
  // kernel, so the points of a pass are still in L1 when it reads them.
  constexpr std::size_t pass = 4;
  std::array<cplx, pass * n_data_subcarriers> points;
  for (std::size_t s0 = 0; s0 < n_sym; s0 += pass) {
    const std::size_t m = std::min(pass, n_sym - s0);
    cplx* dst = points.data();
    for (std::size_t s = s0; s < s0 + m; ++s) {
      const std::size_t base = s * 2 * p.n_dbps;
      const std::uint16_t* src = t.mother_bit.data();
      for (std::size_t d = 0; d < n_data_subcarriers; ++d) {
        std::uint32_t label = 0;
        for (std::size_t b = 0; b < p.n_bpsc; ++b) {
          const std::size_t mb = base + *src++;
          label = (label << 1) | ((mother[mb >> 4] >> (mb & 15)) & 1u);
        }
        *dst++ = t.point_by_label[label];
      }
    }
    modulate_symbols_into(
        std::span<const cplx>(points).first(m * n_data_subcarriers),
        first_symbol + s0,
        out.subspan(s0 * symbol_samples, m * symbol_samples));
  }
}

}  // namespace

cvec signal_symbol(wifi_rate rate, std::size_t length_bytes) {
  // SIGNAL is one BPSK rate-1/2 symbol, unscrambled: its 18 info bits plus
  // the 6 zero tail bits are exactly the 24 data bits of the 6 Mbps mode.
  const phy::bitvec info = signal_info_bits(rate, length_bytes);
  std::array<std::uint8_t, 3> in{};
  for (std::size_t i = 0; i < info.size(); ++i)
    in[i / 8] = static_cast<std::uint8_t>(in[i / 8] | (info[i] << (i % 8)));
  cvec out(symbol_samples);
  modulate_coded(in, params_for(wifi_rate::mbps6), 1, /*first_symbol=*/0, out);
  return out;
}

tx_ppdu transmit(std::span<const std::uint8_t> psdu, const tx_config& config) {
  tx_ppdu out;
  out.samples.resize(ppdu_length_samples(psdu.size(), config.rate));
  transmit_into(psdu, config, out.samples, out);
  return out;
}

void transmit_into(std::span<const std::uint8_t> psdu, const tx_config& config,
                   std::span<cplx> samples, ppdu_info& info) {
  if (psdu.empty() || psdu.size() > 4095)
    throw std::invalid_argument("transmit: PSDU must be 1..4095 bytes");
  const auto& p = params_for(config.rate);
  const std::size_t n_sym = data_symbol_count(psdu.size(), config.rate);
  if (samples.size() != preamble_samples + symbol_samples + n_sym * symbol_samples)
    throw std::invalid_argument("transmit: output must hold exactly one PPDU");

  info.rate = config.rate;
  info.psdu_bytes = psdu.size();
  info.payload.assign(psdu.begin(), psdu.end());
  info.n_data_symbols = n_sym;
  info.data_start = preamble_samples + symbol_samples;

  const cvec preamble = legacy_preamble();
  const cvec sig = signal_symbol(config.rate, psdu.size());
  std::copy(preamble.begin(), preamble.end(), samples.begin());
  std::copy(sig.begin(), sig.end(), samples.begin() + preamble.size());

  // Encoder input, LSB-first bytes: SERVICE (16 zero bits), PSDU, zero pad
  // up to n_info bits, then the encoder's 6-bit zero tail (which plays the
  // role of the standard's tail bits). Only the n_info SERVICE + PSDU + pad
  // bits are scrambled; the PSDU always ends inside them.
  const std::size_t n_bits = n_sym * p.n_dbps;
  const std::size_t n_info = n_bits - phy::conv_tail_bits;
  thread_local std::vector<std::uint8_t> in;
  in.assign((n_bits + 7) / 8, 0);
  std::copy(psdu.begin(), psdu.end(), in.begin() + 2);
  const auto& key = phy::scrambler_keystream_bytes(config.scrambler_seed);
  const std::size_t n_info_bytes = (n_info + 7) / 8;
  for (std::size_t i = 0; i < n_info_bytes; ++i) in[i] ^= key[i % key.size()];
  if (n_info % 8 != 0)
    in[n_info / 8] &= static_cast<std::uint8_t>((1u << (n_info % 8)) - 1u);

  modulate_coded(in, p, n_sym, /*first_symbol=*/1,  // SIGNAL was index 0
                 samples.subspan(info.data_start));
}

std::size_t ppdu_length_samples(std::size_t length_bytes, wifi_rate rate) {
  return preamble_samples + symbol_samples +
         data_symbol_count(length_bytes, rate) * symbol_samples;
}

tx_ppdu random_ppdu(std::size_t length_bytes, const tx_config& config,
                    std::uint64_t seed) {
  dsp::rng gen(seed);
  std::vector<std::uint8_t> psdu(length_bytes);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(gen.uniform_int(256));
  return transmit(psdu, config);
}

}  // namespace backfi::wifi
