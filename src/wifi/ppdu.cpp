#include "wifi/ppdu.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "dsp/rng.h"
#include "phy/constellation.h"
#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/scrambler.h"
#include "wifi/ofdm.h"
#include "wifi/preamble.h"

namespace backfi::wifi {

std::uint32_t signal_info_word(wifi_rate rate, std::size_t length_bytes) {
  if (length_bytes == 0 || length_bytes > 4095)
    throw std::invalid_argument("signal_info_word: LENGTH must be 1..4095");
  const auto& p = params_for(rate);
  std::uint32_t word = 0;
  // RATE: 4 bits, R1 first (stored MSB-first in signal_bits).
  for (int i = 0; i < 4; ++i)
    word |= ((p.signal_bits >> (3 - i)) & 1u) << i;
  // Bit 4 is reserved (0). LENGTH: 12 bits, LSB first.
  word |= static_cast<std::uint32_t>(length_bytes) << 5;
  // Even parity over the first 17 bits.
  word |= static_cast<std::uint32_t>(std::popcount(word) & 1) << 17;
  return word;  // the encoder's zero tail supplies the 6 SIGNAL tail bits
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

void signal_symbol_into(wifi_rate rate, std::size_t length_bytes,
                        std::span<cplx> out) {
  if (out.size() != symbol_samples)
    throw std::invalid_argument("signal_symbol: output must hold one symbol");
  // SIGNAL is one BPSK rate-1/2 symbol, unscrambled: its 18 info bits plus
  // the 6 zero tail bits are exactly the 24 data bits of the 6 Mbps mode.
  const std::uint32_t info = signal_info_word(rate, length_bytes);
  const std::array<std::uint8_t, 3> in{static_cast<std::uint8_t>(info),
                                       static_cast<std::uint8_t>(info >> 8),
                                       static_cast<std::uint8_t>(info >> 16)};
  modulate_coded(in, params_for(wifi_rate::mbps6), 1, /*first_symbol=*/0, out);
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

  const cvec& preamble = legacy_preamble();
  std::copy(preamble.begin(), preamble.end(), samples.begin());
  signal_symbol_into(config.rate, psdu.size(),
                     samples.subspan(preamble.size(), symbol_samples));

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
