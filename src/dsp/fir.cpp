#include "dsp/fir.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fir_kernels.h"

namespace backfi::dsp {

cvec convolve(std::span<const cplx> x, std::span<const cplx> h) {
  if (x.empty() || h.empty()) return {};
  cvec out(x.size() + h.size() - 1, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) {
    const cplx xi = x[i];
    if (xi == cplx{0.0, 0.0}) continue;
    for (std::size_t k = 0; k < h.size(); ++k) out[i + k] += xi * h[k];
  }
  return out;
}

cvec convolve_same(std::span<const cplx> x, std::span<const cplx> h) {
  cvec full = convolve(x, h);
  full.resize(x.size());
  return full;
}

namespace {

/// convolve_same's samples [b, e) into out[b, e); zeros for an empty h.
void convolve_same_window(std::span<const cplx> x, std::span<const cplx> h,
                          std::size_t b, std::size_t e, cplx* out) {
  if (h.empty())
    std::fill(out + b, out + e, cplx{0.0, 0.0});
  else
    detail::convolve_same_gather(x.data(), x.size(), h.data(), h.size(),
                                 out + b, b, e);
}

}  // namespace

void convolve_same_range_into(std::span<const cplx> x, std::span<const cplx> h,
                              std::size_t begin, std::size_t end, cvec& out) {
  out.resize(x.size());
  const std::size_t e = std::min(end, x.size());
  convolve_same_window(x, h, std::min(begin, e), e, out.data());
}

void convolve_same_into(std::span<const cplx> x, std::span<const cplx> h,
                        cvec& out) {
  convolve_same_range_into(x, h, 0, x.size(), out);
}

void convolve_same_into(std::span<const cplx> x, std::span<const cplx> h,
                        std::span<cplx> out) {
  if (out.size() != x.size())
    throw std::invalid_argument("convolve_same_into: output length mismatch");
  convolve_same_window(x, h, 0, x.size(), out.data());
}

void convolve_same_subtract_into(std::span<const cplx> rx,
                                 std::span<const cplx> x,
                                 std::span<const cplx> h, cvec& out) {
  out.resize(rx.size());
  const std::size_t overlap = h.empty() ? 0 : std::min(rx.size(), x.size());
  if (overlap > 0)
    detail::convolve_same_gather_subtract(x.data(), x.size(), h.data(),
                                          h.size(), rx.data(), out.data(), 0,
                                          overlap);
  std::copy(rx.begin() + static_cast<std::ptrdiff_t>(overlap), rx.end(),
            out.begin() + static_cast<std::ptrdiff_t>(overlap));
}

double convolve_same_subtract_energy_into(std::span<const cplx> rx,
                                          std::span<const cplx> x,
                                          std::span<const cplx> h,
                                          std::size_t begin, std::size_t end,
                                          double energy, cvec& out,
                                          double& max_abs) {
  out.resize(rx.size());
  const std::size_t overlap = h.empty() ? 0 : std::min(rx.size(), x.size());
  end = std::min(end, rx.size());
  std::size_t j = std::min(begin, end);
  if (j < overlap) {
    const std::size_t o1 = std::min(end, overlap);
    energy = detail::convolve_same_gather_subtract_energy(
        x.data(), x.size(), h.data(), h.size(), rx.data(), out.data() + j, j,
        o1, energy, max_abs);
    j = o1;
  }
  for (; j < end; ++j) {
    out[j] = rx[j];
    const double re = out[j].real(), im = out[j].imag();
    energy += re * re + im * im;
    max_abs = std::max(max_abs, std::fabs(re));
    max_abs = std::max(max_abs, std::fabs(im));
  }
  return energy;
}

}  // namespace backfi::dsp
