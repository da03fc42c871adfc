#include "fd/canceller.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "dsp/fir.h"
#include "dsp/fir_kernels.h"
#include "dsp/linalg.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "fd/chain_kernels.h"

namespace backfi::fd {

void analog_canceller::adapt(const analog_canceller_config& config,
                             std::span<const cplx> tx, std::span<const cplx> rx,
                             dsp::fir_ls_workspace& w) {
  const std::size_t n = std::min(tx.size(), rx.size());
  dsp::fir_ls_build(tx.first(n), rx.first(n), config.n_taps, w);
  dsp::fir_ls_factor(w, 1e-6);
  dsp::fir_ls_solve(w, taps_);
  // Quantize coefficients to the attenuator/phase-shifter resolution.
  double max_mag = 0.0;
  for (const cplx& t : taps_) max_mag = std::max({max_mag, std::abs(t.real()),
                                                  std::abs(t.imag())});
  if (max_mag <= 0.0) return;
  constexpr double levels = 1ULL
                            << (analog_canceller_config::coefficient_bits - 1);
  const double step = max_mag / levels;
  for (cplx& t : taps_)
    t = {std::round(t.real() / step) * step, std::round(t.imag() / step) * step};
}

double analog_canceller::cancel_energy_into(std::span<const cplx> tx,
                                            std::span<const cplx> rx,
                                            cvec& out, double& max_abs) const {
  return dsp::convolve_same_subtract_energy_into(rx, tx, taps_, out, max_abs);
}

void digital_canceller::adapt(const digital_canceller_config& config,
                              std::span<const cplx> tx, std::span<const cplx> rx,
                              canceller_scratch& s) {
  const std::size_t n = std::min(tx.size(), rx.size());
  const auto txn = tx.first(n);
  const auto rxn = rx.first(n);

  // convolve_same zero-pads, so the first (taps - 1) samples of every
  // emulated waveform are a full-scale warm-up transient — it must be
  // excluded from all the statistics below or it swamps them.
  const std::size_t edge = config.n_taps > 0 ? config.n_taps - 1 : 0;
  const bool augmented =
      (config.widely_linear || config.remove_dc) && n > 3 * edge + 4;
  const bool wl = config.widely_linear && n > 3 * edge + 4;

  dsp::fir_ls_build(txn, rxn, config.n_taps, s.lin);
  // The conj branch's Gram must be derived before the ridge/factor
  // overwrite the linear branch's lags in place.
  if (wl) dsp::fir_ls_derive_conj(txn, edge, s.lin, s.conj);
  dsp::fir_ls_factor(s.lin, digital_canceller_config::ridge);
  dsp::fir_ls_solve(s.lin, taps_);
  conj_taps_.clear();
  dc_ = {0.0, 0.0};
  if (!augmented) return;

  if (wl) {
    // conj(tx), computed once for the initial fit, the acceptance gate and
    // every refit round.
    s.ctx.resize(n);
    for (std::size_t i = 0; i < n; ++i) s.ctx[i] = std::conj(txn[i]);
    const auto ctx = std::span<const cplx>(s.ctx);
    const auto ctxv = ctx.subspan(edge);

    dsp::convolve_same_subtract_into(rxn, txn, taps_, s.work);
    const auto res = std::span<const cplx>(s.work).subspan(edge);
    dsp::fir_ls_build_rhs(ctxv, res, s.conj);
    dsp::fir_ls_factor(s.conj, digital_canceller_config::ridge);
    dsp::fir_ls_solve(s.conj, conj_taps_);
    // Keep the branch only if it clearly explains training-window power.
    // On a healthy front end the residual is thermal noise; an LS fit of
    // that noise yields tiny taps which, multiplied by the full-scale
    // conj(tx) over the whole packet, would inject interference far above
    // the noise floor. Requiring a 3 dB training improvement rejects the
    // noise fit while an actual IQ image (tens of dB above noise) passes.
    dsp::convolve_same_subtract_into(res, ctxv, conj_taps_, s.work2);
    if (dsp::mean_power(std::span<const cplx>(s.work2).subspan(edge)) <
        0.5 * dsp::mean_power(res.subspan(edge))) {
      // Alternating refits: over a short training window, tx and conj(tx)
      // are spuriously correlated at the 1/sqrt(window) level, so each
      // sequential fit leaks a few percent of the other branch. A couple
      // of rounds of re-fitting each branch against rx minus the other's
      // emulation shrinks that crosstalk geometrically. Only the target y
      // changes between rounds, so each branch rebuilds its RHS and reuses
      // its Cholesky factor.
      for (int round = 0; round < 2; ++round) {
        dsp::convolve_same_subtract_into(rxn, ctx, conj_taps_, s.work);
        dsp::fir_ls_build_rhs(txn, s.work, s.lin);
        dsp::fir_ls_solve(s.lin, taps_);
        dsp::convolve_same_subtract_into(rxn, txn, taps_, s.work);
        dsp::fir_ls_build_rhs(ctxv, std::span<const cplx>(s.work).subspan(edge),
                              s.conj);
        dsp::fir_ls_solve(s.conj, conj_taps_);
      }
    } else {
      conj_taps_.clear();
    }
  }
  if (config.remove_dc) {
    // Mean of the fully-cancelled training residual (dc_ is still zero
    // here, so the cancellation applies only the FIR branches).
    const std::array<dsp::sample_range, 1> whole{{{0, n}}};
    cancel_into(txn, rxn, whole, s.work, s, nullptr);
    const auto v = std::span<const cplx>(s.work).subspan(edge);
    cplx sum = {0.0, 0.0};
    for (const cplx& c : v) sum += c;
    dc_ = sum / static_cast<double>(v.size());
  }
}

void digital_canceller::cancel_into(std::span<const cplx> tx,
                                    std::span<const cplx> in,
                                    std::span<const dsp::sample_range> ranges,
                                    cvec& out, canceller_scratch& s,
                                    fused_adc* adc) const {
  const std::size_t n = in.size();
  out.resize(n);
  if (adc != nullptr) adc->digitized.resize(n);
  // With the ADC fused in, the cancellation reads the quantized samples.
  const cplx* src = adc != nullptr ? adc->digitized.data() : in.data();
  const std::size_t overlap = taps_.empty() ? 0 : std::min(n, tx.size());
  // The conjugate and DC branches ride in the same sweep as the linear
  // taps (chain_kernels): one pass over the capture instead of three.
  const bool hardened = !conj_taps_.empty() || dc_ != cplx{0.0, 0.0};
  bool finite = true;
  // Chunks sized so one chunk's quantize (divider-bound) and convolution
  // (FP mul/add-bound) fit a reorder window together: the out-of-order
  // core overlaps the divides of chunk i with the convolution of chunks
  // i-1/i, which a pair of full-capture sweeps can never do.
  constexpr std::size_t kChunk = 256;
  for (const dsp::sample_range& r : ranges) {
    const std::size_t e = std::min(r.end, n);
    const std::size_t b = std::min(r.begin, e);
    const std::size_t eo = std::max(b, std::min(e, overlap));
    for (std::size_t c0 = b; c0 < eo; c0 += kChunk) {
      const std::size_t c1 = std::min(c0 + kChunk, eo);
      if (adc != nullptr)
        quantize_range_saturation(in.data(), c0, c1, adc->config,
                                  adc->digitized.data(), adc->clipped_any);
      if (hardened)
        finite &= detail::cancel_widely_linear(
            tx.data(), taps_.data(), taps_.size(), conj_taps_.data(),
            conj_taps_.size(), dc_, src, out.data(), c0, c1);
      else
        dsp::detail::convolve_same_gather_subtract(
            tx.data(), tx.size(), taps_.data(), taps_.size(), src,
            out.data() + c0, c0, c1);
    }
    if (adc != nullptr)
      quantize_range_saturation(in.data(), eo, e, adc->config,
                                adc->digitized.data(), adc->clipped_any);
    // Past the FIR branches only the DC estimate is removed.
    if (dc_ != cplx{0.0, 0.0})
      for (std::size_t j = eo; j < e; ++j) out[j] = src[j] - dc_;
    else
      std::copy(src + eo, src + e, out.data() + eo);
  }
  if (!finite) cancel_unfused(tx, std::span(src, n), ranges, out, s);
}

void digital_canceller::cancel_unfused(
    std::span<const cplx> tx, std::span<const cplx> src,
    std::span<const dsp::sample_range> ranges, cvec& out,
    canceller_scratch& s) const {
  const std::size_t n = src.size();
  const std::size_t overlap = std::min(n, tx.size());
  constexpr std::size_t kChunk = 256;
  for (const dsp::sample_range& r : ranges) {
    const std::size_t e = std::min(r.end, n);
    const std::size_t b = std::min(r.begin, e);
    const std::size_t eo = std::max(b, std::min(e, overlap));
    for (std::size_t c0 = b; c0 < eo; c0 += kChunk)
      dsp::detail::convolve_same_gather_subtract(
          tx.data(), tx.size(), taps_.data(), taps_.size(), src.data(),
          out.data() + c0, c0, std::min(c0 + kChunk, eo));
    std::copy(src.begin() + eo, src.begin() + e, out.begin() + eo);
  }
  if (!conj_taps_.empty()) {
    s.ctx.resize(tx.size());
    for (std::size_t i = 0; i < tx.size(); ++i) s.ctx[i] = std::conj(tx[i]);
    for (const dsp::sample_range& r : ranges) {
      const std::size_t e = std::min({r.end, n, tx.size()});
      const std::size_t b = std::min(r.begin, e);
      if (b >= e) continue;
      dsp::convolve_same_range_into(s.ctx, conj_taps_, b, e, s.work2);
      for (std::size_t j = b; j < e; ++j) out[j] -= s.work2[j];
    }
  }
  if (dc_ != cplx{0.0, 0.0}) {
    for (const dsp::sample_range& r : ranges) {
      const std::size_t e = std::min(r.end, n);
      for (std::size_t j = std::min(r.begin, e); j < e; ++j) out[j] -= dc_;
    }
  }
}

double cancellation_depth_db(std::span<const cplx> before,
                             std::span<const cplx> after) {
  const double p_before = dsp::mean_power(before);
  const double p_after = std::max(dsp::mean_power(after), 1e-30);
  return dsp::to_db(p_before / p_after);
}

}  // namespace backfi::fd
