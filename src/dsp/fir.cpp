#include "dsp/fir.h"

#include <algorithm>
#include <cassert>

#include "dsp/fft_plan.h"
#include "dsp/fir_kernels.h"

namespace backfi::dsp {

cvec convolve_direct(std::span<const cplx> x, std::span<const cplx> h) {
  if (x.empty() || h.empty()) return {};
  cvec out(x.size() + h.size() - 1, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) {
    const cplx xi = x[i];
    if (xi == cplx{0.0, 0.0}) continue;
    for (std::size_t k = 0; k < h.size(); ++k) out[i + k] += xi * h[k];
  }
  return out;
}

cvec convolve_overlap_save(std::span<const cplx> x, std::span<const cplx> h) {
  if (x.empty() || h.empty()) return {};
  // Convolution is symmetric; treat the shorter operand as the kernel.
  std::span<const cplx> sig = x;
  std::span<const cplx> ker = h;
  if (sig.size() < ker.size()) std::swap(sig, ker);
  const std::size_t m = ker.size();
  const std::size_t n_out = sig.size() + m - 1;
  // Block size ~4x the kernel keeps the discarded (m - 1)-sample prefix
  // under a third of each transform; 256 floor amortizes plan overhead.
  std::size_t nfft = 256;
  while (nfft < 4 * m) nfft <<= 1;
  const std::size_t block = nfft - m + 1;  // new output samples per FFT
  const fft_plan& fwd = get_fft_plan(nfft, fft_direction::forward);
  const fft_plan& inv = get_fft_plan(nfft, fft_direction::inverse);

  cvec ker_freq(nfft, cplx{0.0, 0.0});
  std::copy(ker.begin(), ker.end(), ker_freq.begin());
  fwd.execute(ker_freq);

  cvec out(n_out);
  cvec seg(nfft);
  const double inv_nfft = 1.0 / static_cast<double>(nfft);
  const auto sig_len = static_cast<std::ptrdiff_t>(sig.size());
  for (std::size_t pos = 0; pos < n_out; pos += block) {
    // Segment producing outputs [pos, pos + block): signal samples
    // [pos - (m - 1), pos - (m - 1) + nfft), zero-padded outside the signal.
    const std::ptrdiff_t start =
        static_cast<std::ptrdiff_t>(pos) - static_cast<std::ptrdiff_t>(m - 1);
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(start, 0);
    const std::ptrdiff_t hi =
        std::min(start + static_cast<std::ptrdiff_t>(nfft), sig_len);
    std::fill(seg.begin(), seg.end(), cplx{0.0, 0.0});
    if (lo < hi) {
      std::copy(sig.begin() + lo, sig.begin() + hi, seg.begin() + (lo - start));
    }
    fwd.execute(seg);
    for (std::size_t j = 0; j < nfft; ++j) seg[j] *= ker_freq[j];
    inv.execute(seg);
    // The first m - 1 circular outputs are aliased; the rest are the valid
    // linear-convolution samples for this block.
    const std::size_t count = std::min(block, n_out - pos);
    for (std::size_t j = 0; j < count; ++j) {
      out[pos + j] = seg[m - 1 + j] * inv_nfft;
    }
  }
  return out;
}

cvec convolve(std::span<const cplx> x, std::span<const cplx> h) {
  if (std::min(x.size(), h.size()) >= fft_convolve_min_taps) {
    return convolve_overlap_save(x, h);
  }
  return convolve_direct(x, h);
}

cvec convolve_same(std::span<const cplx> x, std::span<const cplx> h) {
  cvec full = convolve(x, h);
  full.resize(x.size());
  return full;
}

cvec convolve_same_range(std::span<const cplx> x, std::span<const cplx> h,
                         std::size_t begin, std::size_t end) {
  cvec out(x.size(), cplx{0.0, 0.0});
  const std::size_t e = std::min(end, x.size());
  const std::size_t b = std::min(begin, e);
  if (b >= e || x.empty() || h.empty()) return out;
  if (std::min(x.size(), h.size()) >= fft_convolve_min_taps) {
    // FFT regime: the windowed direct loop would not match the overlap-save
    // rounding, so compute the full dispatch path and copy the window.
    const cvec full = convolve_same(x, h);
    std::copy(full.begin() + static_cast<std::ptrdiff_t>(b),
              full.begin() + static_cast<std::ptrdiff_t>(e),
              out.begin() + static_cast<std::ptrdiff_t>(b));
    return out;
  }
  detail::convolve_same_gather(x.data(), x.size(), h.data(), h.size(),
                               out.data() + b, b, e);
  return out;
}

void convolve_same_range_into(std::span<const cplx> x, std::span<const cplx> h,
                              std::size_t begin, std::size_t end, cvec& out,
                              workspace_stats* stats) {
  acquire(out, x.size(), stats);
  const std::size_t e = std::min(end, x.size());
  const std::size_t b = std::min(begin, e);
  if (b >= e) return;
  if (h.empty()) {
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(b),
              out.begin() + static_cast<std::ptrdiff_t>(e), cplx{0.0, 0.0});
    return;
  }
  if (std::min(x.size(), h.size()) >= fft_convolve_min_taps) {
    const cvec full = convolve_same(x, h);
    std::copy(full.begin() + static_cast<std::ptrdiff_t>(b),
              full.begin() + static_cast<std::ptrdiff_t>(e),
              out.begin() + static_cast<std::ptrdiff_t>(b));
    return;
  }
  detail::convolve_same_gather(x.data(), x.size(), h.data(), h.size(),
                               out.data() + b, b, e);
}

void convolve_same_into(std::span<const cplx> x, std::span<const cplx> h,
                        cvec& out, workspace_stats* stats) {
  convolve_same_range_into(x, h, 0, x.size(), out, stats);
}

void convolve_same_subtract_into(std::span<const cplx> rx,
                                 std::span<const cplx> x,
                                 std::span<const cplx> h, cvec& out,
                                 workspace_stats* stats) {
  acquire(out, rx.size(), stats);
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
                                          std::span<const cplx> h, cvec& out,
                                          workspace_stats* stats) {
  acquire(out, rx.size(), stats);
  const std::size_t overlap = h.empty() ? 0 : std::min(rx.size(), x.size());
  double eacc = 0.0;
  if (overlap > 0)
    eacc = detail::convolve_same_gather_subtract_energy(
        x.data(), x.size(), h.data(), h.size(), rx.data(), out.data(), 0,
        overlap);
  for (std::size_t j = overlap; j < rx.size(); ++j) {
    out[j] = rx[j];
    const double re = out[j].real(), im = out[j].imag();
    eacc += re * re + im * im;
  }
  return eacc;
}

fir_filter::fir_filter(cvec taps) : taps_(std::move(taps)) {
  assert(!taps_.empty());
  history_.assign(taps_.size() - 1, cplx{0.0, 0.0});
}

cvec fir_filter::process(std::span<const cplx> input) {
  const std::size_t n_taps = taps_.size();
  const std::size_t keep = n_taps - 1;
  // Materialize the virtual stream history_ ++ input once so the inner
  // loop walks a single contiguous buffer with no history/input boundary
  // branch. stream[keep + n] is input[n]; negative offsets land in the
  // delay line, which always holds exactly keep samples.
  cvec stream;
  stream.reserve(keep + input.size());
  stream.insert(stream.end(), history_.begin(), history_.end());
  stream.insert(stream.end(), input.begin(), input.end());
  cvec out(input.size());
  const cplx* base = stream.data() + keep;
  for (std::size_t n = 0; n < input.size(); ++n) {
    const cplx* s = base + n;
    cplx acc{0.0, 0.0};
    for (std::size_t k = 0; k < n_taps; ++k) {
      acc += taps_[k] * s[-static_cast<std::ptrdiff_t>(k)];
    }
    out[n] = acc;
  }
  if (keep > 0) {
    history_.assign(stream.end() - static_cast<std::ptrdiff_t>(keep),
                    stream.end());
  }
  return out;
}

void fir_filter::reset() { history_.assign(history_.size(), cplx{0.0, 0.0}); }

}  // namespace backfi::dsp
