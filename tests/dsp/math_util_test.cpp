#include "dsp/math_util.h"

#include <gtest/gtest.h>

namespace backfi::dsp {
namespace {

TEST(MathUtilTest, DbConversionsRoundTrip) {
  for (double db : {-115.0, -20.0, 0.0, 3.0, 40.2}) {
    EXPECT_NEAR(to_db(from_db(db)), db, 1e-12);
  }
  EXPECT_NEAR(from_db(3.0103), 2.0, 1e-4);
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-12);
}

TEST(MathUtilTest, AmplitudeVsPowerDb) {
  // -20 dB power = 0.1 amplitude.
  EXPECT_NEAR(db_to_amplitude(-20.0), 0.1, 1e-12);
  EXPECT_NEAR(db_to_amplitude(6.0206), 2.0, 1e-4);
}

TEST(MathUtilTest, DbmWattsRoundTrip) {
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-15);
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-12);
  EXPECT_NEAR(watts_to_dbm(dbm_to_watts(-95.0)), -95.0, 1e-9);
}

TEST(MathUtilTest, WrapPhaseIntoHalfOpenInterval) {
  EXPECT_NEAR(wrap_phase(0.0), 0.0, 1e-15);
  EXPECT_NEAR(wrap_phase(3.0 * pi), pi, 1e-12);
  EXPECT_NEAR(wrap_phase(-3.0 * pi), pi, 1e-12);
  EXPECT_NEAR(wrap_phase(two_pi + 0.5), 0.5, 1e-12);
  for (double raw : {-10.0, -1.0, 4.0, 100.0}) {
    const double w = wrap_phase(raw);
    EXPECT_GT(w, -pi - 1e-15);
    EXPECT_LE(w, pi + 1e-15);
    // Same angle modulo 2*pi.
    EXPECT_NEAR(std::remainder(raw - w, two_pi), 0.0, 1e-9);
  }
}

TEST(MathUtilTest, PhasorOnUnitCircle) {
  for (double angle : {0.0, 0.5, -2.0, 3.1}) {
    const cplx p = phasor(angle);
    EXPECT_NEAR(std::abs(p), 1.0, 1e-15);
    EXPECT_NEAR(std::arg(p), wrap_phase(angle), 1e-12);
  }
}

}  // namespace
}  // namespace backfi::dsp
