// Loaded-AP transmit traces and their replay (paper Section 6.3, Fig. 12a).
//
// Substitution note (DESIGN.md): the paper replays open-source packet
// traces of heavily loaded WiFi networks [24, 41, 47]. Those captures are
// not available offline, so we generate synthetic AP transmit schedules
// with the properties the experiment depends on: per-AP airtime share of a
// saturated network (CSMA contention leaves the AP 60-95 % of the air),
// realistic packet length / rate mixes, and DIFS/backoff gaps.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/rng.h"
#include "mac/airtime.h"

namespace backfi::mac {

/// One AP transmission: [start_us, start_us + airtime_us).
struct tx_interval {
  double start_us = 0.0;
  double airtime_us = 0.0;
};

/// An AP's transmit schedule over a window.
struct ap_trace {
  std::vector<tx_interval> transmissions;
  double duration_us = 0.0;
};

struct trace_config {
  double duration_s = 5.0;
  /// Long-run fraction of airtime the AP wins. The paper's traces are
  /// "heavily loaded"; APs in saturated downlink-dominated networks
  /// typically win 60-95 % of the air.
  double target_busy_fraction = 0.8;
  /// Packet payload range [bytes] (TCP-dominated mix).
  std::size_t min_bytes = 200;
  std::size_t max_bytes = 1500;
  /// Maximum frames aggregated per transmission opportunity (A-MPDU-style
  /// bursts; the paper's replayed APs transmit 1-4 ms at a time).
  std::size_t aggregation_max = 6;
  std::uint64_t seed = 1;
};

/// Generate a synthetic loaded-AP schedule: packets with random sizes and
/// rates, separated by contention gaps sized to hit the busy fraction.
/// Throws std::invalid_argument for a target_busy_fraction outside (0, 1)
/// or min_bytes > max_bytes.
ap_trace generate_loaded_ap_trace(const trace_config& config);

/// Replay parameters: what one backscatter opportunity costs and yields.
struct replay_config {
  /// Optimal (always-transmitting) backscatter throughput at the tag's
  /// placement [bit/s]; paper: 5 Mbps at 2 m.
  double optimal_throughput_bps = 5e6;
  /// Per-opportunity protocol overhead [us].
  double overhead_us = backfi_overhead_us();
};

/// Average backscatter throughput when the tag can only modulate while the
/// AP transmits (one backscatter opportunity per AP packet, minus
/// overhead).
double replay_backscatter_throughput_bps(const ap_trace& trace,
                                         const replay_config& config);

// --- Wild-traffic burst model (GuardRider-style on/off gating) -----------
//
// Ambient excitation in the wild is not merely noisy: it disappears
// outright for stretches when the AP's queue drains or the channel is won
// by stations the tag cannot hear. We model that as an alternating
// renewal process of exponentially distributed ON (excitation present)
// and OFF (air dark) periods, parameterised by duty cycle and mean ON
// length so a sweep can walk duty from clean air down to starvation.

struct burst_config {
  /// Long-run fraction of time excitation is available, in (0, 1].
  double duty_cycle = 0.8;
  /// Mean length of one ON period [us]; OFF periods get
  /// mean_on_us * (1 - duty) / duty so the long-run duty matches.
  double mean_on_us = 4000.0;
  std::uint64_t seed = 1;
};

/// Alternating ON/OFF schedule over a window; starts in an ON period.
struct burst_schedule {
  /// ON periods as [start_us, start_us + length_us), sorted, disjoint.
  std::vector<tx_interval> on_periods;
  double duration_us = 0.0;

  /// Whether excitation is available at time t.
  bool on_at(double t_us) const;
};

/// Draw an exponential ON/OFF schedule. duty_cycle >= 1 degenerates to a
/// single ON period covering the whole window (clean air). Throws
/// std::invalid_argument for a non-finite or non-positive mean_on_us or
/// duty_cycle.
burst_schedule generate_burst_schedule(const burst_config& config,
                                       double duration_us);

/// Sample the schedule at poll boundaries: element p is 1 when the poll
/// starting at p * poll_period_us begins inside an ON period.
std::vector<std::uint8_t> poll_availability(const burst_schedule& schedule,
                                            std::size_t polls,
                                            double poll_period_us);

}  // namespace backfi::mac
