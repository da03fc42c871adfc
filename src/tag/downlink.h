// AP -> tag downlink (paper Section 5.2.1: "The same detection circuitry
// can be used to implement the downlink communication to the tag from the
// AP... BackFi reuses this design [27] and provides similar throughputs
// of 20 Kbps").
//
// The AP encodes bits as on/off keying of short transmissions; the tag's
// envelope detector decodes them. Manchester coding keeps every bit DC-
// balanced so the tag's relative threshold (half the held peak) stays
// valid regardless of the data, and gives the tag a clock edge per bit.
#pragma once

#include <span>

#include "dsp/types.h"
#include "phy/bits.h"

namespace backfi::tag {

struct downlink_config {
  /// Bit period [us]; 50 us Manchester bits = 20 Kbps as in the paper.
  std::size_t bit_period_us = 50;
  /// Transmit amplitude of the "on" half-bit (relative to the AP's unit
  /// transmit reference).
  double pulse_amplitude = 1.0;
};

/// Information rate of the downlink [bit/s].
double downlink_rate_bps(const downlink_config& config = {});

/// Encode bits as a Manchester OOK waveform: bit 1 = on->off,
/// bit 0 = off->on, each half lasting bit_period/2.
cvec encode_downlink(std::span<const std::uint8_t> bits,
                     const downlink_config& config = {});

/// Decode a downlink waveform observed at the tag's antenna (any constant
/// channel scaling): envelope per half-bit, compare the two halves.
/// Returns as many bits as complete bit periods in `samples`.
phy::bitvec decode_downlink(std::span<const cplx> samples,
                            const downlink_config& config = {});

}  // namespace backfi::tag
