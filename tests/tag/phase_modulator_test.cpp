#include "tag/phase_modulator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dsp/math_util.h"
#include "phy/constellation.h"

namespace backfi::tag {
namespace {

TEST(PhaseModulatorTest, SwitchCountsMatchPaper) {
  EXPECT_EQ(phase_modulator(2, 6.0).switch_count(), 1u);
  EXPECT_EQ(phase_modulator(4, 6.0).switch_count(), 3u);
  EXPECT_EQ(phase_modulator(16, 6.0).switch_count(), 15u);
}

TEST(PhaseModulatorTest, RejectsUnsupportedOrder) {
  EXPECT_THROW(phase_modulator(3, 6.0), std::invalid_argument);
  EXPECT_THROW(phase_modulator(32, 6.0), std::invalid_argument);
}

TEST(PhaseModulatorTest, ReflectionPhasesAreUniform) {
  const std::size_t order = 16;
  phase_modulator mod(order, 0.0);
  for (std::uint32_t k = 0; k < order; ++k) {
    const cplx r = mod.reflection_for_index(k);
    const double expected = two_pi * k / static_cast<double>(order);
    EXPECT_NEAR(dsp::wrap_phase(std::arg(r) - expected), 0.0, 1e-12) << k;
    EXPECT_NEAR(std::abs(r), 1.0, 1e-12);
  }
}

// The leaf table holds exactly what the per-symbol formula computed:
// amplitude * phasor(2 pi leaf / order), bit for bit, for every order and
// leaf, through both select() and reflection_for_index() (which wraps the
// index modulo the order).
TEST(PhaseModulatorTest, LeafTableMatchesThePerSymbolFormula) {
  for (const double loss_db : {0.0, 6.0, 8.0}) {
    for (const std::size_t order : {2u, 4u, 8u, 16u}) {
      phase_modulator mod(order, loss_db);
      const double amplitude = dsp::db_to_amplitude(-loss_db);
      for (std::uint32_t leaf = 0; leaf < 2 * order; ++leaf) {
        const double angle = two_pi * static_cast<double>(leaf % order) /
                             static_cast<double>(order);
        const cplx want = amplitude * dsp::phasor(angle);
        const cplx got = mod.reflection_for_index(leaf);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.real()),
                  std::bit_cast<std::uint64_t>(want.real()))
            << order << "/" << leaf;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.imag()),
                  std::bit_cast<std::uint64_t>(want.imag()))
            << order << "/" << leaf;
        if (leaf < order) {
          const cplx selected = mod.select(phy::gray_encode(leaf));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(selected.real()),
                    std::bit_cast<std::uint64_t>(want.real()))
              << order << "/" << leaf;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(selected.imag()),
                    std::bit_cast<std::uint64_t>(want.imag()))
              << order << "/" << leaf;
        }
      }
    }
  }
}

TEST(PhaseModulatorTest, InsertionLossScalesAmplitude) {
  phase_modulator mod(4, 6.0);
  EXPECT_NEAR(mod.reflection_amplitude(), std::pow(10.0, -6.0 / 20.0), 1e-12);
  EXPECT_NEAR(std::abs(mod.reflection_for_index(2)), mod.reflection_amplitude(),
              1e-12);
}

TEST(PhaseModulatorTest, LabelMappingMatchesPskConstellation) {
  for (std::size_t order : {2u, 4u, 8u, 16u}) {
    phase_modulator mod(order, 0.0);
    const auto& c = phy::psk_constellation(order);
    for (std::size_t k = 0; k < order; ++k) {
      const cplx r = mod.select(c.labels[k]);
      EXPECT_NEAR(std::abs(r - c.points[k]), 0.0, 1e-12)
          << "order " << order << " point " << k;
    }
  }
}

TEST(PhaseModulatorTest, GrayNeighbourTogglesOneTreeLevel) {
  phase_modulator mod(16, 6.0);
  mod.select(phy::gray_encode(0));
  mod.reset_toggle_count();
  // Moving to the adjacent leaf (index 1) flips only the lowest-level switch.
  mod.select(phy::gray_encode(1));
  EXPECT_EQ(mod.toggle_count(), 1u);
  // Jumping across the tree (1 -> 8+) re-routes the full path depth.
  mod.select(phy::gray_encode(9));
  EXPECT_EQ(mod.toggle_count(), 1u + 4u);
}

TEST(PhaseModulatorTest, RepeatedSymbolTogglesNothing) {
  phase_modulator mod(4, 6.0);
  mod.select(phy::gray_encode(2));
  mod.reset_toggle_count();
  mod.select(phy::gray_encode(2));
  EXPECT_EQ(mod.toggle_count(), 0u);
}

}  // namespace
}  // namespace backfi::tag
