// Per-packet synthesis: run_backscatter_trial and build_stream_capture
// make one synthesize_packet call per packet.
//
// Draw-order contract: a trial or a stream capture draws everything from
// one dsp::rng(seed), packet by packet (a stream first draws its channels
// once, with draw_backscatter_channels). Each packet consumes, in order:
//   1. one next_u64(), the WiFi payload seed;
//   2. the channel step: a trial's draw_backscatter_channels; a stream's
//      drift innovation of h_f (for k > 0; channel/drift.h), then its LO
//      phase step (one gaussian() when enabled);
//   3. one uniform_int() wake jitter (if the tag woke and
//      tag_jitter_samples > 0);
//   4. the payload bits (if the tag woke);
//   5. the AWGN over the packet and, in a stream, the dead air after it.
// The caller takes steps 1-2, synthesize_packet steps 3-5. Impairment-plan
// faults draw from streams of their own seed (impair/plan.h).
//
// Support-aware backscatter. The received capture is
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

#include "channel/backscatter_link.h"
#include "dsp/rng.h"
#include "dsp/types.h"
#include "impair/plan.h"
#include "reader/excitation.h"
#include "reader/stream_session.h"
#include "tag/tag_device.h"
#include "tag/wake_detector.h"

namespace backfi::sim {

struct scenario_config;  // sim/backscatter_sim.h

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
/// rotated by `theta_rad` (impair::apply_constant_phase; 0 = none), into
/// `rx`, which holds h_env * x (no -0.0 entries), over the support plus
/// tail only; bitwise identical to the full-range sequence. x, rx and the
/// reflection must have one length. Throws std::invalid_argument on
/// mismatched lengths or a wrapped schedule (preamble_start > data_end).
void add_backscatter(std::span<const cplx> x, std::span<const cplx> h_f,
                     std::span<const cplx> h_b,
                     const tag::tag_transmission& tag_tx, double theta_rad,
                     std::span<cplx> rx, synthesis_scratch& scratch);

/// One synthesized packet, in buffers reused across calls.
struct synthesized_packet {
  reader::excitation ex;           ///< the reader's transmit x
  tag::wake_result wake;
  phy::bitvec payload;             ///< the tag's bits; valid if it woke
  tag::tag_transmission tag_tx;    ///< the tag's reply; valid if it woke
  reader::stream_packet schedule;  ///< silent_end from tag::frame_layout
  synthesis_scratch scratch;
};

/// Steps 3-5 of the contract for a packet whose payload seed and channels
/// the caller drew: builds x and runs wake detection; if the tag woke,
/// draws its jitter and payload and applies `faults`' reflection faults.
/// Writes h_env * x into rx's first len(x) samples and adds the backscatter
/// rotated by the LO phase `theta_rad` (h_env * x shares the reader's LO);
/// then adds the AWGN over all of `rx` (a stream's dead air included) and
/// applies `faults`' antenna faults. `offset` places out.schedule in the
/// capture. Throws std::invalid_argument if rx is shorter than x.
void synthesize_packet(const scenario_config& config,
                       std::uint64_t payload_seed,
                       const channel::backscatter_channels& channels,
                       double theta_rad, const impair::impairment_plan& faults,
                       std::size_t offset, std::span<cplx> rx, dsp::rng& gen,
                       synthesized_packet& out);

}  // namespace backfi::sim
