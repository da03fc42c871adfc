#include "sim/rate_adaptation.h"

#include <algorithm>

#include "tag/wake_detector.h"

namespace backfi::sim {

std::vector<operating_point> all_operating_points() {
  std::vector<operating_point> points;
  for (const auto& base : tag::fig7_configs()) {
    for (const double f : tag::standard_symbol_rates()) {
      tag::tag_rate_config rate = base;
      rate.symbol_rate_hz = f;
      points.push_back({rate, tag::throughput_bps(rate),
                        tag::relative_energy_per_bit(rate)});
    }
  }
  std::sort(points.begin(), points.end(),
            [](const operating_point& a, const operating_point& b) {
              return a.throughput_bps < b.throughput_bps;
            });
  return points;
}

scenario_config scenario_for_point(const scenario_config& base,
                                   const tag::tag_rate_config& rate,
                                   double distance_m) {
  scenario_config config = base;
  config.tag_distance_m = distance_m;
  config.tag.rate = rate;

  // Fewer (longer) sync symbols at low symbol rates to bound overhead.
  const std::size_t sps = tag::tag_device(config.tag).samples_per_symbol();
  config.tag.sync_symbols = sps <= 40 ? 16 : (sps <= 200 ? 8 : 4);

  // Cap the payload by the paper's ~1000-bit tag packets and choose the
  // excitation burst length so protocol overhead + payload fit. Low symbol
  // rates cannot carry many bits per burst: bound the airtime to roughly
  // 8 ms and shrink the payload to fit (8 bits minimum — the CRC and tail
  // still dominate, as they would on real sub-10 kSPS links). The PPDUs
  // carry the tag's frame from its time origin, the widest nominal timing
  // search and 64 samples of slack.
  config.payload_bits = std::min<std::size_t>(base.payload_bits, 1000);
  const auto ppdu_need = [&config] {
    return tag::frame_layout(config.tag, config.payload_bits).value().data_end +
           static_cast<std::size_t>(reader::decoder_config::timing_search) + 64;
  };
  const std::size_t max_burst_samples = 160000;  // 8 ms
  const std::size_t wake_samples =
      config.excitation.wake_bits * tag::samples_per_wake_bit;
  while (config.payload_bits > 8 &&
         wake_samples + ppdu_need() > max_burst_samples)
    config.payload_bits = std::max<std::size_t>(config.payload_bits * 2 / 3, 8);

  // Size the excitation burst.
  const std::size_t need = ppdu_need();
  const std::size_t per_ppdu =
      wifi::ppdu_length_samples(config.excitation.ppdu_bytes,
                                config.excitation.rate);
  config.excitation.n_ppdus = std::max<std::size_t>(1, (need + per_ppdu - 1) / per_ppdu);
  return config;
}

std::vector<link_evaluation> evaluate_link(const scenario_config& base,
                                           double distance_m, int trials,
                                           double per_threshold) {
  return evaluate_link(base, distance_m, per_options{.max_trials = trials},
                       per_threshold);
}

std::vector<link_evaluation> evaluate_link(const scenario_config& base,
                                           double distance_m,
                                           const per_options& options,
                                           double per_threshold) {
  validate_or_throw(base, "evaluate_link");
  const std::vector<operating_point> points = all_operating_points();
  std::vector<scenario_config> configs;
  configs.reserve(points.size());
  for (const operating_point& point : points)
    configs.push_back(scenario_for_point(base, point.rate, distance_m));
  const std::vector<per_estimate> estimates =
      packet_error_rates(configs, options, base.collector);
  std::vector<link_evaluation> evals(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    evals[p].point = points[p];
    evals[p].packet_error_rate = estimates[p].per;
    evals[p].goodput_bps =
        points[p].throughput_bps * (1.0 - estimates[p].per);
    evals[p].usable = estimates[p].per <= per_threshold;
  }
  return evals;
}

std::optional<link_evaluation> max_goodput_point(
    const std::vector<link_evaluation>& evaluations) {
  std::optional<link_evaluation> best;
  for (const auto& eval : evaluations) {
    if (eval.packet_error_rate >= 1.0) continue;
    if (!best || eval.goodput_bps > best->goodput_bps) best = eval;
  }
  return best;
}

std::optional<link_evaluation> find_max_goodput(const scenario_config& base,
                                                double distance_m, int trials) {
  return find_max_goodput(base, distance_m, per_options{.max_trials = trials});
}

std::optional<link_evaluation> find_max_goodput(const scenario_config& base,
                                                double distance_m,
                                                const per_options& options) {
  validate_or_throw(base, "find_max_goodput");
  std::vector<operating_point> points = all_operating_points();
  std::sort(points.begin(), points.end(),
            [](const operating_point& a, const operating_point& b) {
              return a.throughput_bps > b.throughput_bps;
            });
  // Walk the points in descending throughput and stop once no remaining
  // point can beat the best goodput seen so far even at zero PER. Each
  // examined point is one engine call with every lane on its trials, so
  // the examined set — and with it the merged telemetry — depends only on
  // the deterministic estimates, never on the thread count.
  std::optional<link_evaluation> best;
  for (const operating_point& point : points) {
    if (best && point.throughput_bps <= best->goodput_bps) break;
    const double per =
        packet_error_rate(scenario_for_point(base, point.rate, distance_m),
                          options)
            .per;
    if (per >= 1.0) continue;
    const double goodput = point.throughput_bps * (1.0 - per);
    if (!best || goodput > best->goodput_bps)
      best = link_evaluation{point, per, goodput, /*usable=*/true};
  }
  return best;
}

std::optional<operating_point> min_repb_point_for_throughput(
    const std::vector<link_evaluation>& evaluations, double target_bps) {
  std::optional<operating_point> best;
  for (const auto& eval : evaluations) {
    if (!eval.usable || eval.point.throughput_bps < target_bps) continue;
    if (!best || eval.point.repb < best->repb) best = eval.point;
  }
  return best;
}

}  // namespace backfi::sim
