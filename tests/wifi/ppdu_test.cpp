#include "wifi/ppdu.h"

#include <gtest/gtest.h>

#include <cstring>

#include "dsp/fft.h"
#include "dsp/rng.h"
#include "dsp/vec_ops.h"
#include "phy/constellation.h"
#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/scrambler.h"
#include "wifi/ofdm.h"
#include "wifi/preamble.h"

namespace backfi::wifi {
namespace {

// The textbook per-bit transmitter the packed pipeline replaced, kept as
// the bit-exact reference: one byte per bit through bytes_to_bits,
// scramble, conv_encode, puncture, interleave and map, then a zero-filled
// 64-bin scatter, IFFT, 1/N and tx-scale rounding, cyclic prefix.
void reference_symbol(std::span<const cplx> points, std::size_t symbol_index,
                      cplx* out) {
  cvec freq(fft_size, cplx{0.0, 0.0});
  const auto data_sc = data_subcarrier_indices();
  for (std::size_t i = 0; i < n_data_subcarriers; ++i)
    freq[subcarrier_to_bin(data_sc[i])] = points[i];
  const auto pilot_sc = pilot_subcarrier_indices();
  const auto pilot_base = pilot_base_values();
  const double polarity = pilot_polarity(symbol_index);
  for (std::size_t i = 0; i < n_pilot_subcarriers; ++i)
    freq[subcarrier_to_bin(pilot_sc[i])] = pilot_base[i] * polarity;
  dsp::get_fft_plan(fft_size, dsp::fft_direction::inverse).execute(freq);
  constexpr double inv_n = 1.0 / static_cast<double>(fft_size);
  for (cplx& v : freq) {
    v *= inv_n;
    v *= tx_scale();
  }
  std::copy(freq.end() - cyclic_prefix, freq.end(), out);
  std::copy(freq.begin(), freq.end(), out + cyclic_prefix);
}

void reference_coded_symbols(const phy::bitvec& coded, std::size_t n_cbps,
                             std::size_t n_bpsc, std::size_t first_symbol,
                             cplx* out) {
  const phy::interleaver il(n_cbps, n_bpsc);
  const auto& constellation = phy::wifi_constellation(n_bpsc);
  phy::bitvec interleaved(n_cbps);
  cvec points(n_data_subcarriers);
  for (std::size_t s = 0; s * n_cbps < coded.size(); ++s) {
    for (std::size_t k = 0; k < n_cbps; ++k)
      interleaved[il.map_index(k)] = coded[s * n_cbps + k];
    constellation.map_into(interleaved, points);
    reference_symbol(points, first_symbol + s, out + s * symbol_samples);
  }
}

tx_ppdu reference_transmit(std::span<const std::uint8_t> psdu,
                           const tx_config& config) {
  const auto& p = params_for(config.rate);
  const std::size_t n_sym = data_symbol_count(psdu.size(), config.rate);
  tx_ppdu out;
  out.rate = config.rate;
  out.psdu_bytes = psdu.size();
  out.payload.assign(psdu.begin(), psdu.end());
  out.n_data_symbols = n_sym;
  out.data_start = preamble_samples + symbol_samples;
  out.samples.resize(out.data_start + n_sym * symbol_samples);

  const cvec preamble = legacy_preamble();
  std::copy(preamble.begin(), preamble.end(), out.samples.begin());
  const phy::bitvec signal_coded =
      phy::conv_encode(signal_info_bits(config.rate, psdu.size()));
  reference_coded_symbols(signal_coded, 48, 1, 0,
                          out.samples.data() + preamble_samples);

  phy::bitvec info(16, 0);  // SERVICE
  const phy::bitvec payload_bits = phy::bytes_to_bits(psdu);
  info.insert(info.end(), payload_bits.begin(), payload_bits.end());
  info.resize(n_sym * p.n_dbps - phy::conv_tail_bits, 0);
  const phy::bitvec coded = phy::puncture(
      phy::conv_encode(phy::scramble(info, config.scrambler_seed)), p.coding);
  EXPECT_EQ(coded.size(), n_sym * p.n_cbps);
  reference_coded_symbols(coded, p.n_cbps, p.n_bpsc, 1,
                          out.samples.data() + out.data_start);
  return out;
}

bool same_samples(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

TEST(PpduTest, PackedTransmitterMatchesPerBitReference) {
  dsp::rng gen(2024);
  for (const std::uint8_t seed : {std::uint8_t{0x5D}, std::uint8_t{0x01},
                                  std::uint8_t{0x7F}}) {
    for (const auto& p : all_rates()) {
      for (const std::size_t len : {1u, 2u, 3u, 17u, 100u, 1500u, 4000u, 4095u}) {
        std::vector<std::uint8_t> psdu(len);
        for (auto& b : psdu) b = static_cast<std::uint8_t>(gen.uniform_int(256));
        const tx_config cfg{.rate = p.rate, .scrambler_seed = seed};
        const tx_ppdu ref = reference_transmit(psdu, cfg);
        const tx_ppdu got = transmit(psdu, cfg);
        ASSERT_TRUE(same_samples(got.samples, ref.samples))
            << p.name << " len " << len << " seed " << int{seed};
        EXPECT_EQ(got.n_data_symbols, ref.n_data_symbols) << p.name;
        EXPECT_EQ(got.data_start, ref.data_start) << p.name;
        EXPECT_EQ(got.payload, ref.payload) << p.name;
        EXPECT_EQ(got.psdu_bytes, len);
        EXPECT_EQ(got.rate, p.rate);

        // The span form writes the same waveform in place.
        cvec slice(got.samples.size() + 2, cplx{7.0, 7.0});
        ppdu_info info;
        transmit_into(psdu, cfg,
                      std::span<cplx>(slice).subspan(1, got.samples.size()), info);
        ASSERT_EQ(std::memcmp(slice.data() + 1, ref.samples.data(),
                              ref.samples.size() * sizeof(cplx)),
                  0)
            << p.name << " len " << len;
        EXPECT_EQ(slice.front(), (cplx{7.0, 7.0}));
        EXPECT_EQ(slice.back(), (cplx{7.0, 7.0}));
        EXPECT_EQ(info.n_data_symbols, ref.n_data_symbols);
        EXPECT_EQ(info.payload, ref.payload);
      }
    }
  }
}

TEST(PpduTest, SpanTransmitRejectsWrongOutputLength) {
  const std::vector<std::uint8_t> psdu(10, 0xA5);
  cvec out(ppdu_length_samples(psdu.size(), wifi_rate::mbps24) - 1);
  ppdu_info info;
  EXPECT_THROW(transmit_into(psdu, {}, out, info), std::invalid_argument);
}

TEST(PpduTest, SignalInfoBitsLayout) {
  const auto bits = signal_info_bits(wifi_rate::mbps6, 100);
  ASSERT_EQ(bits.size(), 18u);
  // RATE for 6 Mbps = 1101.
  EXPECT_EQ(bits[0], 1);
  EXPECT_EQ(bits[1], 1);
  EXPECT_EQ(bits[2], 0);
  EXPECT_EQ(bits[3], 1);
  EXPECT_EQ(bits[4], 0);  // reserved
  // LENGTH = 100 = 0b000001100100, LSB first: 0,0,1,0,0,1,1,0,0,0,0,0
  const int expected_len[] = {0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0};
  for (int i = 0; i < 12; ++i) EXPECT_EQ(bits[5 + i], expected_len[i]) << i;
  // Even parity over all 18 bits.
  int ones = 0;
  for (auto b : bits) ones += b;
  EXPECT_EQ(ones % 2, 0);
}

TEST(PpduTest, SignalInfoBitsRejectsBadLength) {
  EXPECT_THROW(signal_info_bits(wifi_rate::mbps6, 0), std::invalid_argument);
  EXPECT_THROW(signal_info_bits(wifi_rate::mbps6, 4096), std::invalid_argument);
}

TEST(PpduTest, SignalSymbolIs80Samples) {
  EXPECT_EQ(signal_symbol(wifi_rate::mbps24, 64).size(), symbol_samples);
}

TEST(PpduTest, TransmitProducesExpectedLength) {
  for (const auto& p : all_rates()) {
    const std::size_t len = 123;
    const tx_ppdu ppdu = random_ppdu(len, {.rate = p.rate}, 42);
    EXPECT_EQ(ppdu.samples.size(), ppdu_length_samples(len, p.rate)) << p.name;
    EXPECT_EQ(ppdu.n_data_symbols, data_symbol_count(len, p.rate)) << p.name;
    EXPECT_EQ(ppdu.data_start, preamble_samples + symbol_samples) << p.name;
  }
}

TEST(PpduTest, TransmitStartsWithLegacyPreamble) {
  const tx_ppdu ppdu = random_ppdu(50, {}, 7);
  const cvec pre = legacy_preamble();
  for (std::size_t i = 0; i < pre.size(); ++i)
    EXPECT_NEAR(std::abs(ppdu.samples[i] - pre[i]), 0.0, 1e-12) << i;
}

TEST(PpduTest, MeanPowerNearUnity) {
  const tx_ppdu ppdu = random_ppdu(500, {.rate = wifi_rate::mbps54}, 9);
  EXPECT_NEAR(dsp::mean_power(ppdu.samples), 1.0, 0.1);
}

TEST(PpduTest, TransmitRejectsBadPsduSize) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(transmit(empty), std::invalid_argument);
  const std::vector<std::uint8_t> huge(5000, 0);
  EXPECT_THROW(transmit(huge), std::invalid_argument);
}

TEST(PpduTest, DifferentPayloadsGiveDifferentWaveforms) {
  const tx_ppdu a = random_ppdu(100, {}, 1);
  const tx_ppdu b = random_ppdu(100, {}, 2);
  double diff = 0.0;
  for (std::size_t i = a.data_start; i < a.samples.size(); ++i)
    diff += std::abs(a.samples[i] - b.samples[i]);
  EXPECT_GT(diff, 1.0);
}

}  // namespace
}  // namespace backfi::wifi
