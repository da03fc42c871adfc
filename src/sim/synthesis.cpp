#include "sim/synthesis.h"

#include <algorithm>
#include <stdexcept>

#include "dsp/fir.h"
#include "dsp/vec_ops.h"
#include "impair/rf_impairments.h"
#include "tag/wake_detector.h"

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

}  // namespace backfi::sim
