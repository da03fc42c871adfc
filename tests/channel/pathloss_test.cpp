#include "channel/pathloss.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "dsp/types.h"

namespace backfi::channel {
namespace {

TEST(PathlossTest, FreeSpaceAt1m2p4GHz) {
  // Classic reference value: ~40.05 dB at 1 m, 2.437 GHz.
  EXPECT_NEAR(free_space_path_loss_db(1.0, carrier_hz), 40.2, 0.3);
}

TEST(PathlossTest, FreeSpaceDoublesWith6dBPerOctave) {
  const double pl1 = free_space_path_loss_db(1.0, carrier_hz);
  const double pl2 = free_space_path_loss_db(2.0, carrier_hz);
  EXPECT_NEAR(pl2 - pl1, 6.02, 0.01);
}

TEST(PathlossTest, LogDistanceMatchesFreeSpaceForExponent2) {
  for (double d : {0.5, 1.0, 3.0, 7.0}) {
    EXPECT_NEAR(log_distance_path_loss_db(d, carrier_hz, 2.0),
                free_space_path_loss_db(d, carrier_hz), 1e-9)
        << d;
  }
}

TEST(PathlossTest, HigherExponentLosesMoreBeyondReference) {
  EXPECT_GT(log_distance_path_loss_db(5.0, carrier_hz, 3.0),
            log_distance_path_loss_db(5.0, carrier_hz, 2.0));
  // At the 1 m reference they agree.
  EXPECT_NEAR(log_distance_path_loss_db(1.0, carrier_hz, 3.0),
              log_distance_path_loss_db(1.0, carrier_hz, 2.0), 1e-9);
}

TEST(PathlossTest, RejectsNonPositiveOrNonFiniteInputs) {
  // log10 of a zero distance is -inf: a typed error in every build, not an
  // assert that Release compiles away.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {0.0, -2.0, inf, nan}) {
    EXPECT_THROW(free_space_path_loss_db(bad, carrier_hz),
                 std::invalid_argument) << bad;
    EXPECT_THROW(free_space_path_loss_db(1.0, bad), std::invalid_argument)
        << bad;
    EXPECT_THROW(log_distance_path_loss_db(bad, carrier_hz, 2.0),
                 std::invalid_argument) << bad;
    EXPECT_THROW(log_distance_path_loss_db(1.0, bad, 2.0),
                 std::invalid_argument) << bad;
  }
}

TEST(PathlossTest, NoiseFloor20MHz) {
  // -174 dBm/Hz + 10log10(20e6) = -101 dBm; +6 dB NF = -95 dBm.
  EXPECT_NEAR(noise_floor_dbm(20e6, 6.0), -95.0, 0.2);
}

}  // namespace
}  // namespace backfi::channel
