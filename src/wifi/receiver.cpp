#include "wifi/receiver.h"

#include <cmath>
#include <stdexcept>

#include "dsp/correlation.h"
#include "dsp/fft.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "phy/constellation.h"
#include "phy/interleaver.h"
#include "phy/scrambler.h"
#include "wifi/ofdm.h"
#include "wifi/ppdu.h"
#include "wifi/preamble.h"

namespace backfi::wifi {

namespace {

constexpr std::size_t kStfLag = 16;

/// Multiply samples by e^{-j*omega*n} to undo a carrier frequency offset.
cvec apply_cfo_correction(std::span<const cplx> samples, double omega) {
  cvec out(samples.begin(), samples.end());
  if (omega == 0.0) return out;
  for (std::size_t n = 0; n < out.size(); ++n)
    out[n] *= dsp::phasor(-omega * static_cast<double>(n));
  return out;
}

}  // namespace

std::optional<std::size_t> detect_packet(std::span<const cplx> samples,
                                         double threshold) {
  const dsp::rvec metric = dsp::delayed_autocorrelation(samples, kStfLag);
  // Require a sustained plateau (the STF is 160 samples of 16-periodic
  // signal) so OFDM data or noise spikes do not false-trigger.
  constexpr std::size_t kPlateau = 64;
  std::size_t run = 0;
  for (std::size_t n = 0; n < metric.size(); ++n) {
    if (metric[n] >= threshold) {
      if (++run >= kPlateau) return n + 1 - run;
    } else {
      run = 0;
    }
  }
  return std::nullopt;
}

double estimate_coarse_cfo(std::span<const cplx> samples, std::size_t coarse_start) {
  // Use up to 128 samples of the STF region.
  const std::size_t avail = samples.size() - coarse_start;
  const std::size_t span_len = std::min<std::size_t>(128, avail);
  if (span_len < 2 * kStfLag) return 0.0;
  cplx acc{0.0, 0.0};
  for (std::size_t n = coarse_start; n + kStfLag < coarse_start + span_len; ++n)
    acc += samples[n] * std::conj(samples[n + kStfLag]);
  if (std::abs(acc) == 0.0) return 0.0;
  return -std::arg(acc) / static_cast<double>(kStfLag);
}

std::optional<std::size_t> locate_ltf(std::span<const cplx> samples,
                                      std::size_t coarse_start, double threshold) {
  const cvec& ref = ltf_time_symbol();
  // The LTF begins at most stf_samples + 32 after the true packet start;
  // detection can fire up to ~64 samples late, so search a generous window.
  const std::size_t window_start = coarse_start;
  const std::size_t window_len =
      std::min(samples.size() - window_start, stf_samples + ltf_samples + 64);
  if (window_len < ref.size() + 64) return std::nullopt;
  const auto window = samples.subspan(window_start, window_len);
  const dsp::rvec metric = dsp::normalized_correlation(window, ref);

  // Global maximum = one of the two LTF periods.
  std::size_t best = 0;
  for (std::size_t i = 1; i < metric.size(); ++i)
    if (metric[i] > metric[best]) best = i;
  if (metric[best] < threshold) return std::nullopt;

  // If the sample 64 earlier also peaks, `best` is the second period.
  if (best >= fft_size && metric[best - fft_size] > 0.85 * metric[best])
    best -= fft_size;
  return window_start + best;
}

channel_estimate estimate_channel(std::span<const cplx> samples,
                                  std::size_t ltf_symbol_start) {
  if (ltf_symbol_start > samples.size() ||
      samples.size() - ltf_symbol_start < 2 * fft_size)
    throw std::invalid_argument(
        "estimate_channel: capture ends before the two LTF symbols");
  channel_estimate est;
  cvec y1(samples.begin() + ltf_symbol_start,
          samples.begin() + ltf_symbol_start + fft_size);
  cvec y2(samples.begin() + ltf_symbol_start + fft_size,
          samples.begin() + ltf_symbol_start + 2 * fft_size);
  static const dsp::fft_plan& fwd_plan =
      dsp::get_fft_plan(fft_size, dsp::fft_direction::forward);
  fwd_plan.execute(y1);
  fwd_plan.execute(y2);

  double noise_acc = 0.0;
  std::size_t active = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const double l = ltf_value(k);
    if (l == 0.0) continue;
    const std::size_t bin = subcarrier_to_bin(k);
    const cplx avg = 0.5 * (y1[bin] + y2[bin]);
    est.h[static_cast<std::size_t>(k + 26)] = avg / l;
    noise_acc += 0.5 * std::norm(y1[bin] - y2[bin]);
    ++active;
  }
  est.noise_var = noise_acc / static_cast<double>(active);
  return est;
}

namespace {

struct equalized_symbol {
  std::array<cplx, n_data_subcarriers> data;
  double pilot_phase = 0.0;
};

/// Equalize one data/SIGNAL OFDM symbol with pilot common-phase tracking.
equalized_symbol equalize(const demodulated_symbol& sym, const channel_estimate& ch,
                          std::size_t symbol_index) {
  equalized_symbol out;
  // Common phase error from the four pilots.
  const double polarity = pilot_polarity(symbol_index);
  cplx acc{0.0, 0.0};
  const auto pilots = pilot_subcarrier_indices();
  const auto base = pilot_base_values();
  for (std::size_t i = 0; i < n_pilot_subcarriers; ++i) {
    const cplx expected = ch.at(pilots[i]) * (base[i] * polarity);
    acc += sym.pilots[i] * std::conj(expected);
  }
  const double phase = std::abs(acc) > 0.0 ? std::arg(acc) : 0.0;
  out.pilot_phase = phase;
  const cplx derotate = dsp::phasor(-phase);

  const auto data_sc = data_subcarrier_indices();
  for (std::size_t i = 0; i < n_data_subcarriers; ++i) {
    const cplx h = ch.at(data_sc[i]);
    out.data[i] = std::norm(h) > 0.0 ? sym.data[i] * derotate / h : cplx{0.0, 0.0};
  }
  return out;
}

/// Soft demap one equalized symbol, weighting by per-subcarrier noise.
void demap_symbol(const equalized_symbol& eq, const channel_estimate& ch,
                  const phy::constellation& constellation,
                  std::vector<double>& llrs_out, double& evm_acc,
                  std::size_t& evm_count) {
  const auto data_sc = data_subcarrier_indices();
  std::vector<double> llr;
  for (std::size_t i = 0; i < n_data_subcarriers; ++i) {
    const double h2 = std::norm(ch.at(data_sc[i]));
    const double var = h2 > 0.0 ? ch.noise_var / h2 : 1e9;
    constellation.demap_llr(eq.data[i], var, llr);
    llrs_out.insert(llrs_out.end(), llr.begin(), llr.end());
    const std::uint32_t label = constellation.slice(eq.data[i]);
    // Error vector vs the sliced point.
    for (std::size_t p = 0; p < constellation.points.size(); ++p) {
      if (constellation.labels[p] == label) {
        evm_acc += std::norm(eq.data[i] - constellation.points[p]);
        ++evm_count;
        break;
      }
    }
  }
}

}  // namespace

rx_result receive(std::span<const cplx> samples, const rx_config& config) {
  rx_result result;

  const auto detect = detect_packet(samples, config.detection_threshold);
  if (!detect) return result;
  result.detected = true;

  double omega = 0.0;
  if (config.correct_cfo) omega = estimate_coarse_cfo(samples, *detect);
  cvec corrected = apply_cfo_correction(samples, omega);

  const auto ltf = locate_ltf(corrected, *detect, config.timing_threshold);
  if (!ltf) return result;
  std::size_t ltf_start = *ltf;

  // Fine CFO from the repetition of the two LTF periods.
  if (config.correct_cfo && ltf_start + 2 * fft_size <= corrected.size()) {
    cplx acc{0.0, 0.0};
    for (std::size_t n = ltf_start; n < ltf_start + fft_size; ++n)
      acc += corrected[n] * std::conj(corrected[n + fft_size]);
    if (std::abs(acc) > 0.0) {
      const double fine = -std::arg(acc) / static_cast<double>(fft_size);
      for (std::size_t n = 0; n < corrected.size(); ++n)
        corrected[n] *= dsp::phasor(-fine * static_cast<double>(n));
      omega += fine;
    }
  }
  result.cfo_hz = omega * sample_rate_hz / two_pi;
  result.ltf_start = ltf_start;

  if (ltf_start + 2 * fft_size + symbol_samples > corrected.size()) return result;
  result.synchronized = true;

  const channel_estimate ch = estimate_channel(corrected, ltf_start);
  // Preamble SNR: mean active-subcarrier power over noise (the averaged
  // LTF halves the noise on the signal estimate, compensate by 0.5).
  {
    double sig = 0.0;
    std::size_t active = 0;
    for (int k = -26; k <= 26; ++k) {
      if (k == 0 || ltf_value(k) == 0.0) continue;
      sig += std::norm(ch.at(k));
      ++active;
    }
    sig /= static_cast<double>(active);
    const double snr = std::max(sig - 0.5 * ch.noise_var, 1e-12) /
                       std::max(ch.noise_var, 1e-30);
    result.snr_db = dsp::to_db(snr);
  }

  // --- SIGNAL field ---
  const std::size_t signal_start = ltf_start + 2 * fft_size;
  const auto signal_demod = demodulate_symbol(
      std::span(corrected).subspan(signal_start, symbol_samples));
  const auto signal_eq = equalize(signal_demod, ch, 0);
  std::vector<double> signal_llrs;
  double evm_acc = 0.0;
  std::size_t evm_count = 0;
  demap_symbol(signal_eq, ch, phy::wifi_constellation(1), signal_llrs, evm_acc,
               evm_count);
  const phy::interleaver signal_il(48, 1);
  const auto signal_soft = signal_il.deinterleave_soft(signal_llrs);
  std::vector<std::uint64_t> decisions;
  phy::bitvec signal_bits;
  phy::viterbi_decode(signal_soft, 18, decisions, signal_bits);

  // Parity check over the 18 decoded bits (even parity).
  std::uint8_t parity = 0;
  for (std::uint8_t b : signal_bits) parity ^= b;
  if (parity != 0) return result;

  std::uint8_t rate_bits = 0;
  for (int i = 0; i < 4; ++i)
    rate_bits = static_cast<std::uint8_t>((rate_bits << 1) | signal_bits[i]);
  const rate_params* rp = params_for_signal_bits(rate_bits);
  if (rp == nullptr || signal_bits[4] != 0) return result;
  std::size_t length = 0;
  for (int i = 0; i < 12; ++i)
    length |= static_cast<std::size_t>(signal_bits[5 + i]) << i;
  if (length == 0 || length > 4095) return result;
  result.signal_valid = true;
  result.rate = rp->rate;
  result.length_bytes = length;

  // --- DATA field ---
  const std::size_t n_sym = data_symbol_count(length, rp->rate);
  const std::size_t data_start = signal_start + symbol_samples;
  if (data_start + n_sym * symbol_samples > corrected.size()) return result;

  const phy::interleaver il(rp->n_cbps, rp->n_bpsc);
  const auto& constellation = phy::wifi_constellation(rp->n_bpsc);
  std::vector<double> soft;
  soft.reserve(n_sym * rp->n_cbps);
  evm_acc = 0.0;
  evm_count = 0;
  for (std::size_t s = 0; s < n_sym; ++s) {
    const auto demod = demodulate_symbol(
        std::span(corrected).subspan(data_start + s * symbol_samples, symbol_samples));
    const auto eq = equalize(demod, ch, s + 1);
    std::vector<double> sym_llrs;
    demap_symbol(eq, ch, constellation, sym_llrs, evm_acc, evm_count);
    const auto deint = il.deinterleave_soft(sym_llrs);
    soft.insert(soft.end(), deint.begin(), deint.end());
  }
  result.evm_rms = evm_count > 0 ? std::sqrt(evm_acc / static_cast<double>(evm_count))
                                 : 0.0;

  const std::size_t n_info = n_sym * rp->n_dbps - phy::conv_tail_bits;
  std::vector<double> mother;
  phy::depuncture_into(soft, rp->coding, 2 * (n_info + phy::conv_tail_bits),
                       mother);
  phy::bitvec scrambled;
  phy::viterbi_decode(mother, n_info, decisions, scrambled);
  const phy::bitvec info = phy::scramble(scrambled, config.scrambler_seed);

  // SERVICE(16) + PSDU.
  if (info.size() < 16 + 8 * length) return result;
  const phy::bitvec psdu_bits(info.begin() + 16, info.begin() + 16 + 8 * length);
  result.psdu = phy::bits_to_bytes(psdu_bits);
  result.psdu_complete = true;
  return result;
}

}  // namespace backfi::wifi
