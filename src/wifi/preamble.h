// 802.11a/g legacy preamble: short training field (STF) for detection and
// coarse synchronization, long training field (LTF) for fine timing and
// channel estimation.
#pragma once


#include "dsp/types.h"

namespace backfi::wifi {

inline constexpr std::size_t stf_samples = 160;  // 10 short symbols, 8 us
inline constexpr std::size_t ltf_samples = 160;  // GI2 + 2 long symbols, 8 us
inline constexpr std::size_t preamble_samples = stf_samples + ltf_samples;

/// The 160-sample STF (ten repetitions of a 16-sample pattern), unit
/// average power.
const cvec& short_training_field();

/// The 160-sample LTF (32-sample guard + two 64-sample training symbols).
const cvec& long_training_field();

/// One 64-sample LTF period (time domain), used as a timing reference.
const cvec& ltf_time_symbol();

/// LTF frequency value L_k (+-1, 0 at DC) for a logical subcarrier index
/// in [-26, 26].
double ltf_value(int subcarrier);

/// Full legacy preamble: STF followed by LTF (320 samples, 16 us).
cvec legacy_preamble();

}  // namespace backfi::wifi
