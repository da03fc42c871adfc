#include "tag/phase_modulator.h"

#include <gtest/gtest.h>

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
