#include "wifi/preamble.h"

#include <array>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"
#include "wifi/ofdm.h"

namespace backfi::wifi {

namespace {

// Clause 17.3.3: STF occupies every 4th subcarrier with (+-1 +-j) values
// scaled by sqrt(13/6).
struct stf_entry {
  int subcarrier;
  double sign;  // value = sign * (1 + j) * sqrt(13/6)
};
constexpr std::array<stf_entry, 12> kStfEntries = {{
    {-24, 1.0},
    {-20, -1.0},
    {-16, 1.0},
    {-12, -1.0},
    {-8, -1.0},
    {-4, 1.0},
    {4, -1.0},
    {8, -1.0},
    {12, 1.0},
    {16, 1.0},
    {20, 1.0},
    {24, 1.0},
}};

// Clause 17.3.3: LTF sequence for subcarriers -26..26 (DC = 0).
constexpr std::array<double, 53> kLtfSequence = {
    1, 1, -1, -1, 1,  1, -1, 1, -1, 1,  1,  1,  1,  1, 1, -1, -1, 1,
    1, -1, 1, -1, 1,  1, 1,  1, 0,  1,  -1, -1, 1,  1, -1, 1, -1, 1,
    -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1,  -1, 1, 1,  1,  1};

cvec inverse_transform_scaled(cvec freq) {
  // Shared cached plan with the per-symbol OFDM modulator.
  const dsp::fft_plan& inv_plan =
      dsp::get_fft_plan(fft_size, dsp::fft_direction::inverse);
  inv_plan.execute(freq);
  constexpr double inv_n = 1.0 / static_cast<double>(fft_size);
  for (cplx& v : freq) {
    v *= inv_n;
    v *= tx_scale();
  }
  return freq;
}

cvec stf_period_64() {
  cvec freq(fft_size, cplx{0.0, 0.0});
  const double amp = std::sqrt(13.0 / 6.0);
  for (const auto& e : kStfEntries)
    freq[subcarrier_to_bin(e.subcarrier)] = cplx{e.sign, e.sign} * amp;
  return inverse_transform_scaled(std::move(freq));
}

cvec ltf_period_64() {
  cvec freq(fft_size, cplx{0.0, 0.0});
  for (int k = -26; k <= 26; ++k)
    freq[subcarrier_to_bin(k)] = kLtfSequence[static_cast<std::size_t>(k + 26)];
  return inverse_transform_scaled(std::move(freq));
}

}  // namespace

const cvec& short_training_field() {
  static const cvec field = [] {
    const cvec period = stf_period_64();  // inherently 16-sample periodic
    cvec out;
    out.reserve(stf_samples);
    // 160 samples = 2.5 repetitions of the 64-sample IFFT output.
    for (std::size_t i = 0; i < stf_samples; ++i) out.push_back(period[i % fft_size]);
    return out;
  }();
  return field;
}

const cvec& long_training_field() {
  static const cvec field = [] {
    const cvec period = ltf_period_64();
    cvec out;
    out.reserve(ltf_samples);
    // 32-sample guard (second half of the period) + two full periods.
    out.insert(out.end(), period.end() - 32, period.end());
    out.insert(out.end(), period.begin(), period.end());
    out.insert(out.end(), period.begin(), period.end());
    return out;
  }();
  return field;
}

const cvec& ltf_time_symbol() {
  static const cvec symbol = ltf_period_64();
  return symbol;
}

double ltf_value(int subcarrier) {
  if (subcarrier < -26 || subcarrier > 26)
    throw std::invalid_argument("ltf_value: subcarrier outside -26..26");
  return kLtfSequence[static_cast<std::size_t>(subcarrier + 26)];
}

const cvec& legacy_preamble() {
  static const cvec preamble = [] {
    cvec out;
    out.reserve(preamble_samples);
    const cvec& stf = short_training_field();
    const cvec& ltf = long_training_field();
    out.insert(out.end(), stf.begin(), stf.end());
    out.insert(out.end(), ltf.begin(), ltf.end());
    return out;
  }();
  return preamble;
}

}  // namespace backfi::wifi
