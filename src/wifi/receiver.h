// 802.11a/g OFDM receiver: detection, synchronization, channel estimation,
// equalization, pilot tracking and decoding.
//
// Used in two roles in the BackFi reproduction:
//  - the WiFi *client* that the AP's excitation packet is actually meant
//    for (Figs 12b / 13: impact of backscatter interference on WiFi);
//  - validation of the excitation-signal generator via loopback tests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dsp/types.h"
#include "phy/bits.h"
#include "wifi/rates.h"

namespace backfi::wifi {

struct rx_config {
  /// Scrambler seed expected in the DATA field (see tx_config).
  std::uint8_t scrambler_seed = 0x5D;
};

/// Outcome of one receive attempt.
struct rx_result {
  bool detected = false;      ///< STF found
  bool synchronized = false;  ///< LTF timing acquired
  bool signal_valid = false;  ///< SIGNAL parity ok and RATE known
  bool psdu_complete = false; ///< full payload decoded (no truncation)

  wifi_rate rate = wifi_rate::mbps6;
  std::size_t length_bytes = 0;
  std::vector<std::uint8_t> psdu;

  double snr_db = 0.0;        ///< preamble-estimated SNR
  double evm_rms = 0.0;       ///< RMS error vector magnitude of data symbols
  double cfo_hz = 0.0;        ///< estimated carrier frequency offset
  std::size_t ltf_start = 0;  ///< sample index where the LTF begins
};

/// Per-subcarrier channel estimate from the LTF (52 active subcarriers,
/// indexed -26..26 with DC unused).
struct channel_estimate {
  std::array<cplx, 53> h{};   ///< includes the tx scaling factor
  double noise_var = 0.0;     ///< per-sample complex noise variance estimate
  cplx at(int subcarrier) const { return h[static_cast<std::size_t>(subcarrier + 26)]; }
};

/// Full receive chain over a sample buffer that should contain one PPDU.
rx_result receive(std::span<const cplx> samples, const rx_config& config = {});

/// Exposed pipeline stages (useful for tests and the BackFi reader):

/// Find the start of a packet via STF autocorrelation; returns the sample
/// index of the detection point, or nullopt.
std::optional<std::size_t> detect_packet(std::span<const cplx> samples,
                                         double threshold);

/// Estimate CFO (rad/sample) from the STF's 16-sample periodicity around
/// `coarse_start`.
double estimate_coarse_cfo(std::span<const cplx> samples, std::size_t coarse_start);

/// Locate the first LTF 64-sample period by cross-correlation in a window
/// after `coarse_start`; returns the index of the first LTF symbol start.
std::optional<std::size_t> locate_ltf(std::span<const cplx> samples,
                                      std::size_t coarse_start, double threshold);

/// Channel + noise estimation from the two LTF symbols starting at
/// `ltf_symbol_start`.
channel_estimate estimate_channel(std::span<const cplx> samples,
                                  std::size_t ltf_symbol_start);

}  // namespace backfi::wifi
