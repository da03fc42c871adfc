// Coexistence simulation: does the tag's backscatter interfere with the
// WiFi client the excitation packet is actually for? (paper Section 6.4 /
// 6.5, Figs. 12b and 13.)
//
// The client receives the AP's PPDU through its own channel PLUS the
// tag's phase-modulated backscatter of the same PPDU — a time-varying
// multipath-like distortion that the client's one-shot channel estimate
// cannot track. The full WiFi receiver chain runs on the composite signal.
#pragma once

#include <cstdint>

#include "channel/backscatter_link.h"
#include "tag/tag_device.h"
#include "wifi/receiver.h"

namespace backfi::sim {

struct coexistence_config {
  channel::link_budget budget;
  tag::tag_config tag;
  double ap_client_distance_m = 5.0;
  double ap_tag_distance_m = 0.25;
  /// Tag-to-client distance; <= 0 means worst-case collinear placement
  /// (|d_ap_client - d_ap_tag|, floored at 0.25 m).
  double tag_client_distance_m = -1.0;
  wifi::wifi_rate rate = wifi::wifi_rate::mbps54;
  std::size_t ppdu_bytes = 1000;
  bool tag_active = true;
  std::uint64_t seed = 1;
};

struct coexistence_result {
  bool client_decoded = false;   ///< PSDU recovered intact
  double client_snr_db = 0.0;    ///< client's preamble SNR estimate
  double client_evm_rms = 0.0;   ///< data-constellation EVM at the client
};

/// Run one AP -> client packet with (optionally) an active tag.
coexistence_result run_coexistence_trial(const coexistence_config& config);

/// Distance at which a client sees roughly `snr_db` of preamble SNR under
/// the link budget (used to place clients per WiFi bitrate, Fig. 13).
double distance_for_client_snr(const channel::link_budget& budget, double snr_db);

}  // namespace backfi::sim
