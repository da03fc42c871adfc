// Support-aware backscatter synthesis, shared by run_backscatter_trial and
// build_stream_capture.
//
// The received capture is
//   rx = h_env * x  +  rot(theta) . ((h_f * x) .* reflection) * h_b,
// but the tag reflects only inside its own schedule: reflection is exactly
// zero outside the support [preamble_start, data_end) (clipped to the
// capture), and the wake detector reads only the first few microseconds of
// the incident field. So the incident field is built over the wake window
// and the support only, and the reflection product, the h_b convolution and
// the LO rotation run over the support plus h_b's h_b.size() - 1 sample
// tail. h_env * x stays full-capture: the self-interference is everywhere
// (it drives the AGC energy and the canceller's silent window).
//
// Bit-exact against the full-range sequence (apply_channel_into(h_f),
// hadamard_into, apply_channel_into(h_b), apply_constant_phase,
// add_in_place), because every skipped term is an exact zero:
//   - outside the support, incident .* reflection is a signed zero, and a
//     signed-zero product added to a gather-kernel accumulator is a no-op:
//     the accumulator starts at +0.0 and x + (+-0) == x for every x except
//     -0.0, which round-to-nearest addition from +0.0 never produces;
//   - so the full-range h_b convolution is exactly +0.0 outside the support
//     plus tail, rotation turns that into a signed zero, and adding a signed
//     zero to h_env * x is again a no-op, as the gather kernel never emits
//     -0.0 there either.
// Both sides run the same gather kernel at every kernel length, so this
// holds for an h_b of any length.
#pragma once

#include <span>

#include "dsp/types.h"
#include "tag/tag_device.h"

namespace backfi::sim {

/// Reusable buffers of the synthesis (one set per worker thread).
struct synthesis_scratch {
  cvec incident;     ///< h_f * x; valid over the wake window and the support
  cvec reflected;    ///< support product, zero-padded by h_b.size() - 1
  cvec backscatter;  ///< h_b * reflected over the support plus tail
};

/// The incident field h_f * x over the samples the tag's wake detector
/// reads (tag::wake_window_samples), clipped to the capture.
/// Bit-identical to the same window of channel::apply_channel_into(x, h_f).
std::span<const cplx> wake_incident(std::span<const cplx> x,
                                    std::span<const cplx> h_f,
                                    std::size_t wake_bits,
                                    synthesis_scratch& scratch);

/// Add the tag's backscatter ((h_f * x) .* tag_tx.reflection) * h_b,
/// rotated by `theta_rad` (impair::apply_constant_phase; 0 = no rotation),
/// into `rx`, touching only the support [preamble_start, data_end) plus
/// h_b.size() - 1 samples, clipped to the capture. x, rx and the reflection
/// must have the same length. `rx` must hold h_env * x from
/// channel::apply_channel_into (no -0.0 entries). The result is bitwise
/// identical to the full-range call sequence. Throws std::invalid_argument
/// on mismatched lengths or a schedule with preamble_start > data_end
/// (wrapped-around indices).
void add_backscatter(std::span<const cplx> x, std::span<const cplx> h_f,
                     std::span<const cplx> h_b,
                     const tag::tag_transmission& tag_tx, double theta_rad,
                     std::span<cplx> rx, synthesis_scratch& scratch);

}  // namespace backfi::sim
