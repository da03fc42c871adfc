// Log-distance path-loss model at 2.4 GHz.
//
// The paper's testbed is an indoor lab with "rich multi-path reflections";
// we model it as free-space loss at the 1 m reference distance plus a
// log-distance rolloff with a configurable exponent (2.0 = free space,
// ~2.7-3.0 = cluttered indoor, which is what reproduces the paper's
// throughput-vs-range shape).
#pragma once

namespace backfi::channel {

/// Free-space path loss [dB] at distance d [m] and frequency f [Hz].
/// Throws std::invalid_argument unless both are finite and positive.
double free_space_path_loss_db(double distance_m, double frequency_hz);

/// Log-distance model: FSPL(1 m) + 10 * exponent * log10(d). Throws
/// std::invalid_argument unless d and f are finite and positive.
double log_distance_path_loss_db(double distance_m, double frequency_hz,
                                 double exponent);

/// Thermal noise floor [dBm] over `bandwidth_hz` with noise figure [dB] at
/// T = 290 K.
double noise_floor_dbm(double bandwidth_hz, double noise_figure_db);

}  // namespace backfi::channel
