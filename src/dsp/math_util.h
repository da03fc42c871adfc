// Small numeric helpers: dB <-> linear conversions, phase wrapping, phasors.
#pragma once

#include <cmath>

#include "dsp/types.h"

namespace backfi::dsp {

/// Power ratio -> decibels.
inline double to_db(double power_ratio) { return 10.0 * std::log10(power_ratio); }

/// Decibels -> power ratio.
inline double from_db(double db) { return std::pow(10.0, db / 10.0); }

/// Decibels -> amplitude (voltage) ratio.
inline double db_to_amplitude(double db) { return std::pow(10.0, db / 20.0); }

/// dBm -> watts.
inline double dbm_to_watts(double dbm) { return 1e-3 * from_db(dbm); }

/// Watts -> dBm.
inline double watts_to_dbm(double watts) { return to_db(watts / 1e-3); }

/// Wrap an angle to (-pi, pi].
inline double wrap_phase(double phase) {
  while (phase > pi) phase -= two_pi;
  while (phase <= -pi) phase += two_pi;
  return phase;
}

/// Unit phasor e^{j*angle}.
inline cplx phasor(double angle) { return {std::cos(angle), std::sin(angle)}; }

/// sin and cos of one angle through a single call where the libm provides
/// one. glibc's sincos shares the argument reduction with sin/cos and
/// returns bit-identical values, so phasor-rotation loops can use this for
/// ~2x the trig throughput without moving a single pinned literal;
/// elsewhere it falls back to exactly the two separate calls.
inline void sin_cos(double angle, double& sn, double& cs) {
#if defined(__GLIBC__)
  ::sincos(angle, &sn, &cs);
#else
  sn = std::sin(angle);
  cs = std::cos(angle);
#endif
}

}  // namespace backfi::dsp
