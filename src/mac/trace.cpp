#include "mac/trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace backfi::mac {

ap_trace generate_loaded_ap_trace(const trace_config& config) {
  if (!(config.target_busy_fraction > 0.0 &&
        config.target_busy_fraction < 1.0))
    throw std::invalid_argument(
        "generate_loaded_ap_trace: target_busy_fraction outside (0, 1)");
  if (config.min_bytes > config.max_bytes)
    throw std::invalid_argument(
        "generate_loaded_ap_trace: min_bytes > max_bytes");
  dsp::rng gen(config.seed);
  ap_trace trace;
  trace.duration_us = config.duration_s * 1e6;

  // Rate mix of a typical deployment: most traffic at mid/high rates,
  // occasional low-rate retries to distant clients.
  const wifi::wifi_rate rates[] = {wifi::wifi_rate::mbps54, wifi::wifi_rate::mbps48,
                                   wifi::wifi_rate::mbps36, wifi::wifi_rate::mbps24,
                                   wifi::wifi_rate::mbps18, wifi::wifi_rate::mbps6};
  const double rate_weights[] = {0.30, 0.20, 0.20, 0.15, 0.10, 0.05};

  double t = 0.0;
  while (t < trace.duration_us) {
    // Contention gap: DIFS + backoff + other stations' packets; sized so
    // the long-run busy fraction hits the target:
    //   busy = airtime / (airtime + gap)  =>  gap = airtime * (1-b)/b.
    std::size_t bytes = config.min_bytes +
                        gen.uniform_int(config.max_bytes - config.min_bytes + 1);
    double u = gen.uniform();
    wifi::wifi_rate rate = rates[5];
    for (std::size_t i = 0; i < 6; ++i) {
      if (u < rate_weights[i]) {
        rate = rates[i];
        break;
      }
      u -= rate_weights[i];
    }
    const std::size_t aggregated =
        1 + gen.uniform_int(std::max<std::size_t>(config.aggregation_max, 1));
    const double airtime =
        ppdu_airtime_us(bytes, rate) * static_cast<double>(aggregated);
    const double mean_gap =
        airtime * (1.0 - config.target_busy_fraction) / config.target_busy_fraction;
    const double gap = difs_us + gen.exponential(std::max(mean_gap - difs_us, 1.0));
    t += gap;
    if (t + airtime > trace.duration_us) break;
    trace.transmissions.push_back({t, airtime});
    t += airtime;
  }
  return trace;
}

bool burst_schedule::on_at(double t_us) const {
  for (const auto& p : on_periods) {
    if (t_us < p.start_us) return false;
    if (t_us < p.start_us + p.airtime_us) return true;
  }
  return false;
}

burst_schedule generate_burst_schedule(const burst_config& config,
                                       double duration_us) {
  // A zero mean ON length would draw zero-length periods until the
  // allocator gives up.
  if (!(std::isfinite(config.mean_on_us) && config.mean_on_us > 0.0))
    throw std::invalid_argument(
        "generate_burst_schedule: mean_on_us must be finite and positive");
  if (!(std::isfinite(config.duty_cycle) && config.duty_cycle > 0.0))
    throw std::invalid_argument(
        "generate_burst_schedule: duty_cycle must be finite and positive");
  burst_schedule schedule;
  schedule.duration_us = std::max(duration_us, 0.0);
  if (schedule.duration_us <= 0.0) return schedule;
  if (config.duty_cycle >= 1.0) {
    schedule.on_periods.push_back({0.0, schedule.duration_us});
    return schedule;
  }
  const double mean_off =
      config.mean_on_us * (1.0 - config.duty_cycle) / config.duty_cycle;
  dsp::rng gen(config.seed);
  double t = 0.0;
  while (t < schedule.duration_us) {
    const double on = gen.exponential(config.mean_on_us);
    schedule.on_periods.push_back(
        {t, std::min(on, schedule.duration_us - t)});
    t += on;
    t += gen.exponential(mean_off);
  }
  return schedule;
}

std::vector<std::uint8_t> poll_availability(const burst_schedule& schedule,
                                            std::size_t polls,
                                            double poll_period_us) {
  std::vector<std::uint8_t> available(polls, 0);
  for (std::size_t p = 0; p < polls; ++p)
    available[p] =
        schedule.on_at(static_cast<double>(p) * poll_period_us) ? 1 : 0;
  return available;
}

double replay_backscatter_throughput_bps(const ap_trace& trace,
                                         const replay_config& config) {
  if (trace.duration_us <= 0.0) return 0.0;
  double data_us = 0.0;
  for (const auto& tx : trace.transmissions)
    data_us += std::max(0.0, tx.airtime_us - config.overhead_us);
  const double bits = config.optimal_throughput_bps * (data_us * 1e-6);
  return bits / (trace.duration_us * 1e-6);
}

}  // namespace backfi::mac
