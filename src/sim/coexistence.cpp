#include "sim/coexistence.h"

#include <algorithm>
#include <cmath>

#include "channel/awgn.h"
#include "channel/pathloss.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "reader/excitation.h"
#include "tag/wake_detector.h"

namespace backfi::sim {

coexistence_result run_coexistence_trial(const coexistence_config& config) {
  coexistence_result result;
  dsp::rng gen(config.seed);

  reader::excitation_config ex_cfg;
  ex_cfg.tag_id = config.tag.id;
  ex_cfg.ppdu_bytes = config.ppdu_bytes;
  ex_cfg.rate = config.rate;
  ex_cfg.payload_seed = gen.next_u64();
  const reader::excitation ex = reader::build_excitation(ex_cfg);

  // AP -> client direct channel (0 dBi client antenna).
  const cvec h_ac = channel::draw_one_way_channel(
      config.budget, config.ap_client_distance_m, 0.0, gen);
  cvec client_rx = channel::apply_channel(ex.samples, h_ac);

  if (config.tag_active) {
    const auto tag_channels = channel::draw_backscatter_channels(
        config.budget, config.ap_tag_distance_m, gen);
    const double d_tc =
        config.tag_client_distance_m > 0.0
            ? config.tag_client_distance_m
            : std::max(0.25, std::abs(config.ap_client_distance_m -
                                      config.ap_tag_distance_m));
    const cvec h_tc = channel::draw_one_way_channel(config.budget, d_tc,
                                                    0.0, gen);

    const cvec incident = channel::apply_channel(ex.samples, tag_channels.h_f);
    const double incident_dbm = channel::incident_power_at_tag_dbm(
        config.budget, config.ap_tag_distance_m);
    const std::size_t wake_window =
        std::min(tag::wake_window_samples(ex_cfg.wake_bits), incident.size());
    const auto wake = tag::detect_wake(std::span(incident).first(wake_window),
                                       ex.wake_preamble, incident_dbm);
    if (wake.woke) {
      const phy::bitvec payload = gen.random_bits(512);
      const tag::tag_device device(config.tag);
      const auto tag_tx = device.backscatter(payload, ex.samples.size(),
                                             wake.preamble_end_sample);
      const cvec reflected = dsp::hadamard(incident, tag_tx.reflection);
      const cvec at_client = channel::apply_channel(reflected, h_tc);
      dsp::add_in_place(client_rx, at_client);
    }
  }

  const double noise = channel::normalized_noise_power(
      config.budget.tx_power_dbm, config.budget.bandwidth_hz,
      config.budget.noise_figure_db);
  // Trailing noise-only samples so a timing estimate that lands a sample
  // late still has a full final symbol window to read.
  client_rx.resize(client_rx.size() + 400, cplx{0.0, 0.0});
  channel::add_awgn(client_rx, noise, gen);

  // The client's receiver sees everything after the OOK wake pulses.
  const auto rx_span = std::span(client_rx).subspan(ex.wake_end);
  const wifi::rx_result rx = wifi::receive(rx_span);
  result.client_decoded = rx.psdu_complete && rx.psdu == ex.ppdu.payload;
  result.client_snr_db = rx.snr_db;
  result.client_evm_rms = rx.evm_rms;
  return result;
}

double distance_for_client_snr(const channel::link_budget& budget, double snr_db) {
  // rx_dbm = tx - PL(d) ; SNR = rx - noise_floor. Solve PL for d.
  const double floor_dbm =
      channel::noise_floor_dbm(budget.bandwidth_hz, budget.noise_figure_db);
  const double target_pl = budget.tx_power_dbm - (snr_db + floor_dbm);
  const double ref = channel::free_space_path_loss_db(1.0, budget.frequency_hz);
  return std::pow(10.0, (target_pl - ref) / (10.0 * budget.path_loss_exponent));
}

}  // namespace backfi::sim
