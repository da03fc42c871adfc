// Additive white Gaussian noise at a configurable normalized power.
//
// Convention used throughout the simulator: a transmitted baseband signal
// with unit mean sample power represents `tx_power_dbm`; all channel gains
// and noise powers are normalized to that reference, so dynamic range
// between self-interference (~0 dB) and thermal noise (~-115 dB for a
// 20 dBm transmitter) is carried in the double-precision samples.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/replay_cache.h"
#include "dsp/rng.h"
#include "dsp/types.h"

namespace backfi::channel {

/// Complex AWGN of total power `noise_power` (E|n|^2) added in place.
///
/// Stream-position contract (pinned by ChannelAwgnTest): when
/// `noise_power <= 0` the call returns WITHOUT touching `gen` — zero draws
/// are consumed, exactly as the seed implementation behaved. Callers that
/// need draw positions to be independent of the noise power must not rely
/// on add_awgn advancing the stream. When `noise_power > 0` the call
/// consumes exactly the draws of `x.size()` complex_gaussian() calls.
///
/// Implementation: the Gaussian synthesis runs through the batched
/// dsp::rng block kernel add_scaled_complex_gaussian, fronted by a
/// process-wide replay cache keyed on (entering RNG state, length).
/// Repeated (seed, scenario) trials — perf reps, fig08/fig10 grids,
/// wild-traffic arms — replay the identical RNG state at this stage, so
/// the cache turns their Box-Muller synthesis into one fused vectorized
/// scaled-add; `gen` is restored to the exact position a generating pass
/// ends at. An admitted miss is the same single pass as the uncached path:
/// the kernel adds amp·z into `x` and records the unit-power z into the
/// new entry as it goes, so hit and miss results are bitwise identical by
/// construction. A miss the cache refuses (dsp::replay_cache::admit: it
/// admits only after recent hits or at a key's second sighting, so a run
/// of fresh seeds is refused from the first) is the uncached pass itself,
/// with no record. Budget:
/// BACKFI_NOISE_CACHE_MB (MiB, default 64, 0 disables).
void add_awgn(std::span<cplx> x, double noise_power, dsp::rng& gen);

/// Noise power normalized to the transmit power reference: the receiver's
/// thermal floor (kTB * NF) divided by the transmit power.
double normalized_noise_power(double tx_power_dbm, double bandwidth_hz,
                              double noise_figure_db);

/// Counters of the AWGN replay cache (process-wide, cumulative). Exported
/// as runtime.noise_cache.* gauges by the trial runner.
using noise_cache_stats = dsp::replay_cache_stats;
noise_cache_stats awgn_cache_stats();

}  // namespace backfi::channel
