#include "channel/pathloss.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/math_util.h"
#include "dsp/types.h"

namespace backfi::channel {

namespace {

void require_positive(double value, const char* what) {
  if (!(std::isfinite(value) && value > 0.0))
    throw std::invalid_argument(std::string("path loss: ") + what +
                                " must be finite and positive");
}

}  // namespace

double free_space_path_loss_db(double distance_m, double frequency_hz) {
  require_positive(distance_m, "distance");
  require_positive(frequency_hz, "frequency");
  const double wavelength = speed_of_light / frequency_hz;
  return 20.0 * std::log10(4.0 * pi * distance_m / wavelength);
}

double log_distance_path_loss_db(double distance_m, double frequency_hz,
                                 double exponent) {
  require_positive(distance_m, "distance");
  const double reference = free_space_path_loss_db(1.0, frequency_hz);
  return reference + 10.0 * exponent * std::log10(distance_m);
}

double noise_floor_dbm(double bandwidth_hz, double noise_figure_db) {
  const double noise_watts = boltzmann * 290.0 * bandwidth_hz;
  return dsp::watts_to_dbm(noise_watts) + noise_figure_db;
}

}  // namespace backfi::channel
