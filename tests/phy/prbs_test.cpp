#include "phy/prbs.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace backfi::phy {
namespace {

int correlate_bipolar(const bitvec& a, const bitvec& b) {
  int acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += (a[i] == b[i]) ? 1 : -1;
  return acc;
}

TEST(PrbsTest, LfsrIsDeterministic) {
  lfsr a(0x6000u, 0x1234u);
  lfsr b(0x6000u, 0x1234u);
  EXPECT_EQ(a.bits(256), b.bits(256));
}

TEST(PrbsTest, ZeroStateThrows) {
  // A zero register would emit only zeros.
  EXPECT_THROW(lfsr(0x6000u, 0u), std::invalid_argument);
}

TEST(PrbsTest, LfsrMaximalPeriod) {
  // x^15 + x^14 + 1 m-sequence has period 2^15 - 1.
  lfsr gen(0x6000u, 0x1u);
  const bitvec seq = gen.bits(2 * 32767);
  for (std::size_t i = 0; i < 32767; ++i)
    ASSERT_EQ(seq[i], seq[i + 32767]) << "period mismatch at " << i;
  // And it is not shorter: first half must differ from a shift of itself.
  bool all_same = true;
  for (std::size_t i = 0; i + 100 < 32767 && all_same; ++i)
    if (seq[i] != seq[i + 100]) all_same = false;
  EXPECT_FALSE(all_same);
}

TEST(PrbsTest, LfsrBalancedOutput) {
  lfsr gen(0x6000u, 0x7FFu);
  const bitvec seq = gen.bits(32767);
  int ones = 0;
  for (auto b : seq) ones += b;
  // m-sequence has exactly 2^14 ones in one period.
  EXPECT_EQ(ones, 16384);
}

TEST(PrbsTest, WakePreambleStartsWithPulseAndIsStablePerTag) {
  const bitvec p1 = wake_preamble(7);
  const bitvec p2 = wake_preamble(7);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.size(), 16u);
  EXPECT_EQ(p1[0], 1);
}

TEST(PrbsTest, WakePreamblesDifferAcrossTags) {
  std::set<bitvec> unique;
  for (std::uint32_t id = 0; id < 32; ++id) unique.insert(wake_preamble(id));
  EXPECT_GT(unique.size(), 28u);
}

TEST(PrbsTest, SyncSequenceHasSharpAutocorrelation) {
  const bitvec seq = sync_sequence(3, 640);
  const int peak = correlate_bipolar(seq, seq);
  EXPECT_EQ(peak, 640);
  // Shifted versions should correlate much lower.
  for (std::size_t shift : {1u, 7u, 63u}) {
    bitvec shifted(seq.begin() + shift, seq.end());
    shifted.insert(shifted.end(), seq.begin(), seq.begin() + shift);
    const int side = correlate_bipolar(seq, shifted);
    EXPECT_LT(std::abs(side), peak / 4) << "shift " << shift;
  }
}

TEST(PrbsTest, SyncSequenceDiffersFromWakePreamble) {
  const bitvec wake = wake_preamble(5, 64);
  const bitvec sync = sync_sequence(5, 64);
  EXPECT_NE(wake, sync);
}

}  // namespace
}  // namespace backfi::phy
