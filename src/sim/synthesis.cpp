#include "sim/synthesis.h"

#include <algorithm>
#include <stdexcept>

#include "channel/awgn.h"
#include "dsp/fir.h"
#include "dsp/vec_ops.h"
#include "impair/rf_impairments.h"
#include "sim/backscatter_sim.h"

namespace backfi::sim {

std::span<const cplx> wake_incident(std::span<const cplx> x,
                                    std::span<const cplx> h_f,
                                    std::size_t wake_bits,
                                    synthesis_scratch& scratch) {
  const std::size_t window =
      std::min(tag::wake_window_samples(wake_bits), x.size());
  dsp::convolve_same_range_into(x, h_f, 0, window, scratch.incident);
  return std::span<const cplx>(scratch.incident).first(window);
}

void add_backscatter(std::span<const cplx> x, std::span<const cplx> h_f,
                     std::span<const cplx> h_b,
                     const tag::tag_transmission& tag_tx, double theta_rad,
                     std::span<cplx> rx, synthesis_scratch& scratch) {
  if (rx.size() != x.size() || tag_tx.reflection.size() != x.size())
    throw std::invalid_argument("add_backscatter: capture length mismatch");
  if (tag_tx.preamble_start > tag_tx.data_end)
    throw std::invalid_argument("add_backscatter: tag schedule out of order");
  const std::size_t end = std::min(tag_tx.data_end, x.size());
  const std::size_t begin = std::min(tag_tx.preamble_start, end);
  if (begin == end || h_b.empty()) return;

  // Incident field over the support, then the reflection product into a
  // buffer that carries h_b's tail as +0.0 padding.
  const std::size_t len = end - begin;
  const std::size_t tail = h_b.size() - 1;
  dsp::convolve_same_range_into(x, h_f, begin, end, scratch.incident);
  scratch.reflected.resize(len + tail);
  for (std::size_t i = 0; i < len; ++i)
    scratch.reflected[i] = scratch.incident[begin + i] * tag_tx.reflection[begin + i];
  std::fill(scratch.reflected.begin() + static_cast<std::ptrdiff_t>(len),
            scratch.reflected.end(), cplx{0.0, 0.0});

  // Output j of the capture-wide convolution is output j - begin here:
  // inputs before the support are zeros either way.
  const std::size_t n_out = std::min(len + tail, x.size() - begin);
  dsp::convolve_same_range_into(scratch.reflected, h_b, 0, n_out,
                                scratch.backscatter);
  const auto window = std::span<cplx>(scratch.backscatter).first(n_out);
  impair::apply_constant_phase(window, theta_rad);
  dsp::add_in_place(rx.subspan(begin, n_out), window);
}

void synthesize_packet(const scenario_config& config,
                       std::uint64_t payload_seed,
                       const channel::backscatter_channels& channels,
                       double theta_rad, const impair::impairment_plan& faults,
                       std::size_t offset, std::span<cplx> rx, dsp::rng& gen,
                       synthesized_packet& out) {
  reader::excitation_config ex_cfg = config.excitation;
  ex_cfg.tag_id = config.tag.id;
  ex_cfg.payload_seed = payload_seed;
  reader::build_excitation_into(ex_cfg, out.ex);
  const std::span<const cplx> x = out.ex.samples;
  if (rx.size() < x.size())
    throw std::invalid_argument("synthesize_packet: capture shorter than x");

  out.wake = tag::detect_wake(
      wake_incident(x, channels.h_f, ex_cfg.wake_bits, out.scratch),
      out.ex.wake_preamble,
      channel::incident_power_at_tag_dbm(config.budget, config.tag_distance_m));
  // Self-interference rides every packet whether or not the tag answers.
  const std::span<cplx> packet = rx.first(x.size());
  dsp::convolve_same_into(x, channels.h_env, packet);
  if (out.wake.woke) {
    const std::size_t jitter =
        config.tag_jitter_samples > 0
            ? gen.uniform_int(config.tag_jitter_samples + 1)
            : 0;
    out.payload = gen.random_bits(config.payload_bits);
    tag::tag_device(config.tag).backscatter_into(
        out.payload, x.size(), out.wake.preamble_end_sample + jitter,
        out.tag_tx);
    faults.apply_to_reflection(out.tag_tx.reflection,
                               out.tag_tx.preamble_start, out.tag_tx.data_end);
    add_backscatter(x, channels.h_f, channels.h_b, out.tag_tx, theta_rad,
                    packet, out.scratch);
  }
  channel::add_awgn(rx, channels.noise_power, gen);
  faults.apply_at_antenna(rx);

  const auto frame = tag::frame_layout(config.tag, config.payload_bits,
                                       offset + out.ex.wake_end);
  out.schedule = {offset, offset + x.size(), offset + out.ex.wake_end,
                  frame.value().preamble_start, config.payload_bits};
}

}  // namespace backfi::sim
