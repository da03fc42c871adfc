// Small numeric helpers: dB <-> linear conversions, phase wrapping, phasors
// and phasor rotation.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "dsp/libm_kernels.h"
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
/// returns bit-identical values; elsewhere it falls back to exactly the
/// two separate calls. Loops over many angles use sincos_block
/// (libm_kernels.h), which returns the same bits at vector speed.
inline void sin_cos(double angle, double& sn, double& cs) {
#if defined(__GLIBC__)
  ::sincos(angle, &sn, &cs);
#else
  sn = std::sin(angle);
  cs = std::cos(angle);
#endif
}

/// x[i] *= e^{j*phase[i]}: the per-sample loop `x[i] *= {cos, sin}` with
/// sin and cos from sincos_block, so bit for bit the libm loop. The spans
/// must have equal length (std::invalid_argument otherwise).
inline void rotate_by_phases(std::span<cplx> x, std::span<const double> phase) {
  constexpr std::size_t kBlock = 256;
  if (phase.size() != x.size())
    throw std::invalid_argument("rotate_by_phases: phase.size() != x.size()");
  double sn[kBlock], cs[kBlock];
  for (std::size_t i = 0; i < x.size(); i += kBlock) {
    const std::size_t m = std::min(kBlock, x.size() - i);
    sincos_block(phase.subspan(i, m), std::span<double>(sn, m),
                 std::span<double>(cs, m));
    for (std::size_t k = 0; k < m; ++k) x[i + k] *= cplx{cs[k], sn[k]};
  }
}

}  // namespace backfi::dsp
