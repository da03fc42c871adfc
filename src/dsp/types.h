// Core scalar/complex types and physical constants shared by all BackFi
// modules. Complex baseband is represented as std::complex<double>: the
// simulation favours numerical headroom (LS solves, 90+ dB dynamic range
// between self-interference and backscatter) over memory footprint.
#pragma once

#include <complex>
#include <cstddef>
#include <numbers>
#include <vector>

namespace backfi {

using cplx = std::complex<double>;
using cvec = std::vector<cplx>;
using rvec = std::vector<double>;

/// A closed-open range [begin, end) of absolute sample indices into a
/// capture buffer. end <= begin means empty — the conventional "unset"
/// spelling for optional windows (e.g. the receive chain's ROI).
struct sample_range {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool empty() const { return end <= begin; }
  std::size_t size() const { return empty() ? 0 : end - begin; }
};

inline constexpr double pi = std::numbers::pi;
inline constexpr double two_pi = 2.0 * std::numbers::pi;

/// Speed of light [m/s]; used by path-loss and delay models.
inline constexpr double speed_of_light = 299'792'458.0;

/// Boltzmann constant [J/K]; used for thermal-noise floors.
inline constexpr double boltzmann = 1.380649e-23;

/// Baseband samples per microsecond: the simulation's clock, which every
/// duration given in microseconds is converted with.
inline constexpr std::size_t samples_per_us = 20;

/// Baseband sample rate of the whole simulation [Hz]. One sample per
/// 802.11 20 MHz sample; 50 ns resolution, fine enough to resolve the
/// paper's 50-80 ns indoor delay spreads as 1-2 taps.
inline constexpr double sample_rate_hz = samples_per_us * 1e6;

/// Duration of one baseband sample [s].
inline constexpr double sample_period_s = 1.0 / sample_rate_hz;

/// WiFi carrier frequency [Hz] (2.4 GHz band, channel 6 as in the paper).
inline constexpr double carrier_hz = 2.437e9;

}  // namespace backfi

namespace backfi::dsp {
// Re-export the core aliases so dsp:: users can qualify them naturally.
using backfi::cplx;
using backfi::cvec;
using backfi::rvec;
using backfi::sample_range;
using backfi::samples_per_us;
}  // namespace backfi::dsp
