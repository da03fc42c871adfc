// Two-stage self-interference cancellation (paper Section 4.2, after [12]).
//
// Analog stage: an RF FIR emulation with a small number of taps whose
// coefficients have finite (attenuator/phase-shifter) resolution. It must
// knock the self-interference down enough that the ADC's dynamic range can
// represent the backscatter signal.
//
// Digital stage: full-precision least-squares FIR estimate of the residual
// channel, adapted ONLY during the tag's silent period so the backscatter
// signal itself is never cancelled (the paper's key protocol point).
#pragma once

#include <span>

#include "dsp/linalg.h"
#include "dsp/types.h"
#include "fd/adc.h"

namespace backfi::fd {

struct analog_canceller_config {
  std::size_t n_taps = 6;
  /// Coefficient resolution in bits (per I/Q axis) of the tunable
  /// attenuator/phase-shifter network. Limits achievable cancellation.
  static constexpr std::size_t coefficient_bits = 7;
};

/// Reusable adaptation/cancellation state for both canceller stages (one
/// per worker thread, threaded through receive_chain_scratch). Holds the
/// least-squares fit workspaces and the capture-length intermediates the
/// widely-linear path previously allocated per packet.
struct canceller_scratch {
  dsp::fir_ls_workspace lin;   ///< linear-branch normal equations
  dsp::fir_ls_workspace conj;  ///< conj-branch normal equations
  cvec ctx;                    ///< conj(tx), computed once per adapt
  cvec work;                   ///< residual / refit target
  cvec work2;                  ///< trial cancellation / conj emulation
};

/// Analog cancellation stage: the adapted tap state. adapt() tunes the
/// taps from a (tx, rx) training segment; cancel_energy_into() subtracts
/// the emulated leakage. The tap vector keeps its capacity across adapts,
/// so a canceller reused packet after packet (receive_chain_scratch)
/// adapts without allocating.
class analog_canceller {
 public:
  /// Tune taps by least squares over the training segment with the
  /// reusable fit workspace `w`, then quantize them to the hardware
  /// resolution of `config`.
  void adapt(const analog_canceller_config& config, std::span<const cplx> tx,
             std::span<const cplx> rx, dsp::fir_ls_workspace& w);

  /// out = rx - tx * taps (same length as rx; tx must be the aligned
  /// transmit samples for the same interval) into a reusable caller
  /// buffer, returning the residual's energy (sum |out[i]|^2, bit-identical
  /// to dsp::energy(out) run afterwards) fused into the cancellation store
  /// loop, and writing the residual's peak axis magnitude max(|re|, |im|)
  /// (NaN components ignored) to `max_abs`. The receive chain's AGC sets
  /// its full scale from exactly this energy and its ADC saturation flag
  /// is `max_abs > full_scale`; the fusion removes a capture-length rms
  /// pass and a saturation scan between the analog stage and the ADC.
  double cancel_energy_into(std::span<const cplx> tx, std::span<const cplx> rx,
                            cvec& out, double& max_abs) const;

  const cvec& taps() const { return taps_; }
  bool adapted() const { return !taps_.empty(); }

 private:
  cvec taps_;
};

struct digital_canceller_config {
  std::size_t n_taps = 8;
  /// LS ridge of the fit (scaled by excitation energy).
  static constexpr double ridge = 1e-9;
  /// Widely-linear augmentation: also estimate an FIR on conj(tx) and
  /// subtract it. A plain FIR of tx cannot cancel the image the receive
  /// path's IQ imbalance makes of the (60+ dB stronger) self-interference;
  /// the conjugate branch can. Estimated sequentially on the residual.
  bool widely_linear = false;
  /// Estimate and subtract the residual's DC component (front-end DC
  /// offset / LO leakage, which no FIR of a zero-mean tx can produce).
  bool remove_dc = false;
};

/// The ADC stage fused into digital_canceller::cancel_into.
struct fused_adc {
  const adc_config& config;
  cvec& digitized;        ///< sized to len(in); written over the ranges
  unsigned& clipped_any;  ///< OR-ed with the ranges' clip events
};

/// Digital cancellation stage: unconstrained LS FIR estimate of the
/// residual self-interference channel (the adapted tap state; like the
/// analog stage, its tap vectors keep their capacity across adapts).
class digital_canceller {
 public:
  /// Fit the taps of `config` over the training segment with reusable
  /// scratch (zero-alloc after warm-up). The widely-linear branch derives
  /// its conj-excitation Gram from the linear branch's lags
  /// (fir_ls_derive_conj) and reuses each branch's Cholesky factor across
  /// the alternating refits, which reassociates the conj Gram sums —
  /// tolerance-level agreement with a from-scratch fit there (see
  /// DESIGN.md §9).
  void adapt(const digital_canceller_config& config, std::span<const cplx> tx,
             std::span<const cplx> rx, canceller_scratch& scratch);

  /// The apply kernel: out[j] = in[j] - (tx * taps)[j] - (conj(tx) *
  /// conj_taps)[j] - dc for j in `ranges` (disjoint, ascending [begin, end)
  /// windows, clamped to len(in)); the FIR branches stop at len(tx), past
  /// which only the DC estimate is removed. out is sized to len(in) but
  /// only the ranges are written — samples outside them are left stale and
  /// must not be read. Every sample is computed on its own, so any split of
  /// the capture into ranges gives the bits of one full range {0, len(in)}.
  ///
  /// With `adc`, `in` is the analog waveform: the kernel quantizes each
  /// range into adc->digitized in 256-sample chunks, each followed by its
  /// cancellation, so the quantizer's divide chain executes while the FP
  /// pipes chew the convolution; the result is bit-identical to
  /// quantize_range_saturation() over the ranges followed by the kernel
  /// without `adc`. The
  /// ranges' per-axis clip events are OR-ed into adc->clipped_any.
  void cancel_into(std::span<const cplx> tx, std::span<const cplx> in,
                   std::span<const dsp::sample_range> ranges, cvec& out,
                   canceller_scratch& scratch, fused_adc* adc = nullptr) const;

  const cvec& taps() const { return taps_; }
  const cvec& conjugate_taps() const { return conj_taps_; }
  cplx dc() const { return dc_; }
  bool adapted() const { return !taps_.empty(); }

 private:
  /// The widely-linear/DC branch as three separate passes over the
  /// already-quantized `src`: linear cancel, conj-tap convolution of a
  /// conj(tx) copy subtracted, DC subtracted. The fused sweep equals them
  /// bit for bit on NaN-free outputs; cancel_into re-runs them when it
  /// produced a NaN, whose sign depends on an operation order the fused
  /// sweep does not keep (and, in a build without AVX2, on the scatter
  /// convolution's zero skip and std::complex products).
  void cancel_unfused(std::span<const cplx> tx, std::span<const cplx> src,
                      std::span<const dsp::sample_range> ranges, cvec& out,
                      canceller_scratch& s) const;

  cvec taps_;
  cvec conj_taps_;          ///< widely-linear branch (empty when disabled)
  cplx dc_ = {0.0, 0.0};    ///< estimated residual DC (remove_dc)
};

/// Cancellation depth [dB]: input power over residual power for a segment.
double cancellation_depth_db(std::span<const cplx> before,
                             std::span<const cplx> after);

}  // namespace backfi::fd
