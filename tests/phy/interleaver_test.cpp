#include "phy/interleaver.h"

#include <gtest/gtest.h>

#include <set>

#include "dsp/rng.h"

namespace backfi::phy {
namespace {

/// Interleave one block through the permutation table.
bitvec interleaved(const interleaver& il, std::span<const std::uint8_t> block) {
  bitvec out(il.block_size());
  for (std::size_t k = 0; k < block.size(); ++k) out[il.map_index(k)] = block[k];
  return out;
}

/// The inverse permutation on hard bits.
bitvec deinterleaved(const interleaver& il,
                     std::span<const std::uint8_t> block) {
  bitvec out(block.size());
  for (std::size_t k = 0; k < block.size(); ++k) out[k] = block[il.map_index(k)];
  return out;
}

struct interleaver_params {
  std::size_t n_cbps;
  std::size_t n_bpsc;
};

class InterleaverParamTest : public ::testing::TestWithParam<interleaver_params> {};

TEST_P(InterleaverParamTest, MappingIsBijective) {
  const auto [n_cbps, n_bpsc] = GetParam();
  const interleaver il(n_cbps, n_bpsc);
  std::set<std::size_t> targets;
  for (std::size_t k = 0; k < n_cbps; ++k) {
    const std::size_t j = il.map_index(k);
    EXPECT_LT(j, n_cbps);
    targets.insert(j);
  }
  EXPECT_EQ(targets.size(), n_cbps);
}

TEST_P(InterleaverParamTest, RoundTripIdentity) {
  const auto [n_cbps, n_bpsc] = GetParam();
  const interleaver il(n_cbps, n_bpsc);
  dsp::rng gen(n_cbps);
  const bitvec block = gen.random_bits(n_cbps);
  EXPECT_EQ(deinterleaved(il, interleaved(il, block)), block);
}

TEST_P(InterleaverParamTest, SoftDeinterleaveMatchesHard) {
  const auto [n_cbps, n_bpsc] = GetParam();
  const interleaver il(n_cbps, n_bpsc);
  dsp::rng gen(n_cbps + 1);
  const bitvec block = gen.random_bits(n_cbps);
  const bitvec sent = interleaved(il, block);
  std::vector<double> soft(sent.size());
  for (std::size_t i = 0; i < soft.size(); ++i)
    soft[i] = sent[i] ? -1.0 : 1.0;
  const auto restored = il.deinterleave_soft(soft);
  for (std::size_t i = 0; i < block.size(); ++i)
    EXPECT_EQ(restored[i] < 0.0, block[i] != 0);
}

// All (N_CBPS, N_BPSC) pairs used by 802.11a/g 20 MHz rates.
INSTANTIATE_TEST_SUITE_P(AllWifiRates, InterleaverParamTest,
                         ::testing::Values(interleaver_params{48, 1},
                                           interleaver_params{96, 2},
                                           interleaver_params{192, 4},
                                           interleaver_params{288, 6}));

TEST(InterleaverTest, AdjacentBitsSeparatedAcrossSubcarriers) {
  // Key property: adjacent coded bits must map to non-adjacent subcarriers.
  const interleaver il(192, 4);  // 16-QAM
  for (std::size_t k = 0; k + 1 < 192; ++k) {
    const std::size_t sc_a = il.map_index(k) / 4;
    const std::size_t sc_b = il.map_index(k + 1) / 4;
    EXPECT_NE(sc_a, sc_b) << "bits " << k << "," << k + 1;
  }
}

TEST(InterleaverTest, KnownStandardMappingBpsk) {
  // Clause 17.3.5.6 with N_CBPS=48, N_BPSC=1: k=0 -> 0, k=1 -> 3, k=16 -> 1.
  const interleaver il(48, 1);
  EXPECT_EQ(il.map_index(0), 0u);
  EXPECT_EQ(il.map_index(1), 3u);
  EXPECT_EQ(il.map_index(16), 1u);
  EXPECT_EQ(il.map_index(47), 47u);
}

TEST(InterleaverTest, RejectsInvalidBlockSize) {
  EXPECT_THROW(interleaver(0, 1), std::invalid_argument);
  EXPECT_THROW(interleaver(50, 1), std::invalid_argument);
}

TEST(InterleaverTest, RejectsWrongBlockSizes) {
  // A long block would be read through forward_ past the table: a typed
  // error, not UB.
  const interleaver il(48, 1);
  EXPECT_THROW(il.deinterleave_soft(std::vector<double>(96, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(il.deinterleave_soft(std::vector<double>(47, 0.0)),
               std::invalid_argument);
  // The exact size still works.
  EXPECT_NO_THROW(il.deinterleave_soft(std::vector<double>(48, 0.0)));
}

}  // namespace
}  // namespace backfi::phy
