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

/// Information rate of the downlink [bit/s]: 50 us Manchester bits, the
/// paper's 20 Kbps.
double downlink_rate_bps();

/// Encode bits as a Manchester OOK waveform: bit 1 = on->off,
/// bit 0 = off->on, each half lasting 25 us. The "on" half has the AP's
/// unit transmit amplitude.
cvec encode_downlink(std::span<const std::uint8_t> bits);

/// Decode a downlink waveform observed at the tag's antenna (any constant
/// channel scaling): envelope per half-bit, compare the two halves.
/// Returns as many bits as complete bit periods in `samples`.
phy::bitvec decode_downlink(std::span<const cplx> samples);

}  // namespace backfi::tag
