#include "phy/erasure_code.h"

#include <gtest/gtest.h>

#include "dsp/rng.h"

namespace backfi::phy {
namespace {

std::vector<std::uint8_t> random_block(std::size_t k, std::size_t bytes,
                                       std::uint64_t seed) {
  dsp::rng gen(seed);
  std::vector<std::uint8_t> data(k * bytes);
  for (auto& b : data) b = static_cast<std::uint8_t>(gen.uniform_int(256));
  return data;
}

TEST(Gf256Test, FieldAxiomsHoldOnSamples) {
  // Spot-check associativity/distributivity and the inverse identity over
  // a deterministic sample of the field.
  dsp::rng gen(3);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint8_t>(gen.uniform_int(256));
    const auto b = static_cast<std::uint8_t>(gen.uniform_int(256));
    const auto c = static_cast<std::uint8_t>(gen.uniform_int(256));
    EXPECT_EQ(gf256_mul(a, gf256_mul(b, c)), gf256_mul(gf256_mul(a, b), c));
    EXPECT_EQ(gf256_mul(a, static_cast<std::uint8_t>(b ^ c)),
              gf256_mul(a, b) ^ gf256_mul(a, c));
    if (b != 0) {
      EXPECT_EQ(gf256_mul(b, gf256_div(1, b)), 1);
      EXPECT_EQ(gf256_mul(gf256_div(a, b), b), a);
    }
  }
  EXPECT_EQ(gf256_mul(0, 17), 0);
  EXPECT_EQ(gf256_mul(1, 17), 17);
  EXPECT_THROW(gf256_div(1, 0), std::invalid_argument);
}

TEST(ErasureSpecTest, ScheduledSymbolsPerScheme) {
  erasure_spec spec;
  spec.block_symbols = 8;
  spec.rs_repair_symbols = 4;
  EXPECT_EQ(spec.scheduled_symbols(), 12u);
  EXPECT_EQ(spec.packet_payload_bits(), erasure_header_bits + 128u);
  EXPECT_EQ(spec.block_payload_bits(), 8u * 16u * 8u);
}

TEST(CodedPacketTest, HeaderRoundTrip) {
  erasure_spec spec;
  spec.symbol_bytes = 5;
  const std::vector<std::uint8_t> symbol = {1, 2, 250, 0, 255};
  const bitvec bits = pack_coded_packet(513, 42, symbol);
  EXPECT_EQ(bits.size(), spec.packet_payload_bits());
  std::uint32_t block = 0, esi = 0;
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(unpack_coded_packet(bits, spec, block, esi, out));
  EXPECT_EQ(block, 513u);
  EXPECT_EQ(esi, 42u);
  EXPECT_EQ(out, symbol);
  // Wrong length is rejected, not misparsed.
  bitvec truncated(bits.begin(), bits.end() - 8);
  EXPECT_FALSE(unpack_coded_packet(truncated, spec, block, esi, out));
}

TEST(ReedSolomonTest, SystematicPrefixIsVerbatim) {
  const std::size_t k = 6, bytes = 9;
  const auto data = random_block(k, bytes, 11);
  for (std::size_t esi = 0; esi < k; ++esi) {
    const auto sym = rs_encode_symbol(data, k, bytes, esi);
    EXPECT_TRUE(std::equal(sym.begin(), sym.end(),
                           data.begin() + static_cast<std::ptrdiff_t>(
                                              esi * bytes)));
  }
}

TEST(ReedSolomonTest, AnyKSymbolsReconstructTheBlock) {
  const std::size_t k = 8, bytes = 16;
  const auto data = random_block(k, bytes, 29);
  // Generate symbols 0..k+5, then decode from several survivor patterns:
  // repair-only, mixed, and interleaved-loss.
  std::vector<std::vector<std::uint8_t>> symbols;
  for (std::size_t esi = 0; esi < k + 6; ++esi)
    symbols.push_back(rs_encode_symbol(data, k, bytes, esi));
  const std::vector<std::vector<std::uint32_t>> survivor_sets = {
      {8, 9, 10, 11, 12, 13, 0, 1},   // mostly repair
      {0, 2, 4, 6, 8, 10, 12, 13},    // alternating loss
      {13, 12, 11, 10, 3, 2, 1, 0},   // arrival order reversed
  };
  for (const auto& esis : survivor_sets) {
    std::vector<std::vector<std::uint8_t>> received;
    for (const std::uint32_t e : esis) received.push_back(symbols[e]);
    const auto decoded = rs_decode_block(esis, received, k, bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
}

TEST(ReedSolomonTest, FewerThanKSymbolsStaysPending) {
  const std::size_t k = 5, bytes = 4;
  const auto data = random_block(k, bytes, 7);
  std::vector<std::uint32_t> esis = {0, 5, 6, 6};  // duplicate ESI ignored
  std::vector<std::vector<std::uint8_t>> received;
  for (const std::uint32_t e : esis)
    received.push_back(rs_encode_symbol(data, k, bytes, e));
  EXPECT_FALSE(rs_decode_block(esis, received, k, bytes).has_value());
}

TEST(ReedSolomonTest, FieldLimitsAreEnforced) {
  const auto data = random_block(4, 2, 1);
  EXPECT_THROW(rs_encode_symbol(data, 4, 2, 255), std::invalid_argument);
  EXPECT_THROW(rs_encode_symbol(data, 0, 2, 0), std::invalid_argument);
  EXPECT_THROW(rs_encode_symbol(data, 5, 2, 0), std::invalid_argument);
}

}  // namespace
}  // namespace backfi::phy
