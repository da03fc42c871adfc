// Backscatter link geometry: everything between the reader's transmit
// chain and its receive chain (paper Eq. 1/3):
//
//   y = x * h_env  +  ((x * h_f) . e^{j theta}) * h_b  +  noise
//
// h_env is the self-interference channel (circulator leakage plus
// environment reflections), h_f / h_b are the reader->tag and tag->reader
// channels. All gains are normalized to the transmit power reference
// (unit-power x represents tx_power_dbm).
#pragma once

#include "channel/multipath.h"
#include "dsp/rng.h"
#include "dsp/types.h"

namespace backfi::channel {

/// RF/link-budget constants of the reproduction testbed, calibrated so the
/// paper's headline points hold (DESIGN.md section 4). Nothing sweeps them,
/// so they are static members: `budget.x` reads the one calibrated value.
struct link_budget {
  static constexpr double tx_power_dbm = 20.0;  ///< WARP-class AP power
  static constexpr double tag_antenna_gain_dbi = 3.0;  ///< paper: 3 dB omni
  /// Modulator reflection/insertion loss.
  static constexpr double tag_insertion_loss_db = 8.0;
  static constexpr double path_loss_exponent = 2.85;  ///< cluttered lab
  static constexpr double noise_figure_db = 6.0;
  static constexpr double bandwidth_hz = 20e6;
  /// Direct TX->RX leakage.
  static constexpr double circulator_isolation_db = 20.0;
  /// Total environment reflections.
  static constexpr double env_reflection_db = -45.0;
  static constexpr double frequency_hz = carrier_hz;
};

/// One random realization of all channels for a reader + tag placement.
struct backscatter_channels {
  cvec h_env;  ///< self-interference channel (leakage + reflections)
  cvec h_f;    ///< reader -> tag (path loss + tag antenna gain + multipath)
  cvec h_b;    ///< tag -> reader (path loss + tag antenna gain + multipath)
  double noise_power = 0.0;  ///< normalized receiver noise power
};

/// Draw channels for a tag at `tag_distance_m` from the reader.
backscatter_channels draw_backscatter_channels(const link_budget& budget,
                                               double tag_distance_m,
                                               dsp::rng& gen);

/// One-way channel from a transmitter to a receiver at `distance_m`
/// (used for AP -> WiFi-client and tag -> WiFi-client links).
cvec draw_one_way_channel(const link_budget& budget, double distance_m,
                          double rx_antenna_gain_dbi, dsp::rng& gen);

/// Incident RF power at the tag [dBm] — gates the wake-up detector, whose
/// sensitivity is -41 dBm in the paper's reference design [40].
double incident_power_at_tag_dbm(const link_budget& budget, double tag_distance_m);

/// Expected round-trip backscatter power at the reader [dBm] (excluding
/// multipath fading), for link-budget sanity checks and tests.
double expected_backscatter_power_dbm(const link_budget& budget,
                                      double tag_distance_m);

}  // namespace backfi::channel
