#include "phy/erasure_code.h"

#include <gtest/gtest.h>

#include <numeric>

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
  spec.fountain_overhead = 0.25;
  spec.scheme = erasure_scheme::none;
  EXPECT_EQ(spec.scheduled_symbols(), 8u);
  spec.scheme = erasure_scheme::reed_solomon;
  EXPECT_EQ(spec.scheduled_symbols(), 12u);
  spec.scheme = erasure_scheme::fountain;
  EXPECT_EQ(spec.scheduled_symbols(), 10u);
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

TEST(SolitonTest, PmfIsNormalizedAndDeterministic) {
  const auto pmf = robust_soliton_pmf(32, 0.1, 0.5);
  ASSERT_EQ(pmf.size(), 32u);
  const double total = std::accumulate(pmf.begin(), pmf.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
  for (const double p : pmf) EXPECT_GE(p, 0.0);
  // Degree 2 dominates the ideal soliton part.
  EXPECT_GT(pmf[1], pmf[4]);
  EXPECT_EQ(pmf, robust_soliton_pmf(32, 0.1, 0.5));
  EXPECT_EQ(robust_soliton_pmf(1, 0.1, 0.5), std::vector<double>{1.0});
  EXPECT_THROW(robust_soliton_pmf(0, 0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(robust_soliton_pmf(8, 0.1, 1.5), std::invalid_argument);
}

TEST(FountainTest, NeighborsAreDeterministicAndSeeded) {
  erasure_spec spec;
  spec.scheme = erasure_scheme::fountain;
  spec.block_symbols = 16;
  spec.seed = 77;
  for (std::uint32_t esi = 0; esi < 16; ++esi) {
    const auto n = lt_neighbors(spec, 3, esi);
    ASSERT_EQ(n.size(), 1u);  // systematic prefix
    EXPECT_EQ(n[0], esi);
  }
  const auto a = lt_neighbors(spec, 3, 40);
  EXPECT_EQ(a, lt_neighbors(spec, 3, 40));
  ASSERT_GE(a.size(), 1u);
  for (const std::size_t n : a) EXPECT_LT(n, spec.block_symbols);
  // Different seed, block or esi must be able to change the draw; check a
  // few indices differ somewhere (overwhelmingly likely).
  erasure_spec other = spec;
  other.seed = 78;
  bool any_diff = false;
  for (std::uint32_t esi = 16; esi < 48; ++esi)
    any_diff |= lt_neighbors(spec, 3, esi) != lt_neighbors(other, 3, esi);
  EXPECT_TRUE(any_diff);
}

TEST(FountainTest, SystematicDeliveryDecodesAtExactlyK) {
  erasure_spec spec;
  spec.scheme = erasure_scheme::fountain;
  spec.block_symbols = 12;
  spec.symbol_bytes = 8;
  const auto data = random_block(spec.block_symbols, spec.symbol_bytes, 5);
  lt_decoder decoder(spec.block_symbols, spec.symbol_bytes);
  for (std::uint32_t esi = 0; esi < spec.block_symbols; ++esi) {
    const auto sym = lt_encode_symbol(spec, data, 0, esi);
    decoder.add_symbol(lt_neighbors(spec, 0, esi), sym);
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.data(), data);
}

TEST(FountainTest, RepairOnlyDeliveryDecodesWithOverhead) {
  erasure_spec spec;
  spec.scheme = erasure_scheme::fountain;
  spec.block_symbols = 16;
  spec.symbol_bytes = 4;
  spec.seed = 9;
  const auto data = random_block(spec.block_symbols, spec.symbol_bytes, 21);
  // Lose the entire systematic prefix: only ESIs >= k arrive. The decoder
  // must still finish from pseudo-random combinations alone.
  lt_decoder decoder(spec.block_symbols, spec.symbol_bytes);
  std::uint32_t esi = static_cast<std::uint32_t>(spec.block_symbols);
  std::size_t fed = 0;
  while (!decoder.complete() && fed < 20 * spec.block_symbols) {
    decoder.add_symbol(lt_neighbors(spec, 1, esi),
                       lt_encode_symbol(spec, data, 1, esi));
    ++esi;
    ++fed;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.data(), data);
  // Rateless efficiency: well under 4x overhead for this geometry.
  EXPECT_LT(decoder.symbols_received(), 4 * spec.block_symbols);
}

TEST(FountainTest, RedundantSymbolsAreAbsorbed) {
  erasure_spec spec;
  spec.block_symbols = 4;
  spec.symbol_bytes = 2;
  const auto data = random_block(4, 2, 2);
  lt_decoder decoder(4, 2);
  const auto sym0 = lt_encode_symbol(spec, data, 0, 0);
  for (int i = 0; i < 5; ++i)
    decoder.add_symbol(lt_neighbors(spec, 0, 0), sym0);
  EXPECT_EQ(decoder.rank(), 1u);
  EXPECT_EQ(decoder.symbols_received(), 5u);
  EXPECT_FALSE(decoder.complete());
  EXPECT_THROW(decoder.data(), std::logic_error);
}

TEST(FountainTest, LargeBlockCrossesWordBoundaries) {
  // k > 64 exercises the multi-word GF(2) masks.
  erasure_spec spec;
  spec.scheme = erasure_scheme::fountain;
  spec.block_symbols = 80;
  spec.symbol_bytes = 3;
  spec.seed = 13;
  const auto data = random_block(spec.block_symbols, spec.symbol_bytes, 17);
  lt_decoder decoder(spec.block_symbols, spec.symbol_bytes);
  // Drop every third systematic symbol, then repair from the stream.
  for (std::uint32_t esi = 0; esi < spec.block_symbols; ++esi) {
    if (esi % 3 == 0) continue;
    decoder.add_symbol(lt_neighbors(spec, 2, esi),
                       lt_encode_symbol(spec, data, 2, esi));
  }
  std::uint32_t esi = static_cast<std::uint32_t>(spec.block_symbols);
  std::size_t guard = 0;
  while (!decoder.complete() && guard++ < 2000) {
    decoder.add_symbol(lt_neighbors(spec, 2, esi),
                       lt_encode_symbol(spec, data, 2, esi));
    ++esi;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.data(), data);
}

}  // namespace
}  // namespace backfi::phy
