#include "dsp/fft_plan.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <memory>
#include <mutex>

#include "dsp/fft.h"
#include "dsp/math_util.h"

namespace backfi::dsp {

namespace {

// Ping-pong scratch for the out-of-place Stockham stages. Thread-local so
// plans can execute concurrently from sim::sweep_for workers.
thread_local std::vector<double> tl_stockham_scratch;

// DIF Stockham radix-4 autosort with a radix-2 tail when log2(n) is odd.
// Operates on interleaved (re, im) doubles; the permutation is implicit in
// the stage structure, so there is no bit-reversal pass and every store is
// contiguous.
void run_stockham(std::span<cplx> data, bool inverse,
                  const std::vector<double>& tw,
                  const std::vector<std::size_t>& off) {
  const std::size_t n = data.size();
  auto& scratch = tl_stockham_scratch;
  if (scratch.size() < 2 * n) scratch.resize(2 * n);
  double* x = reinterpret_cast<double*>(data.data());
  double* y = scratch.data();
  // Sign of the +/-j rotation applied to the (b - d) leg of output 1/3.
  const double jsgn = inverse ? 1.0 : -1.0;
  std::size_t stage = 0;
  std::size_t s = 1;   // output stride of the current stage
  std::size_t n0 = n;  // sub-transform length remaining
  for (; n0 >= 4; n0 >>= 2, s <<= 2, ++stage) {
    const std::size_t m = n0 / 4;
    const double* w = tw.data() + off[stage];
    for (std::size_t p = 0; p < m; ++p) {
      const double w1r = w[6 * p], w1i = w[6 * p + 1];
      const double w2r = w[6 * p + 2], w2i = w[6 * p + 3];
      const double w3r = w[6 * p + 4], w3i = w[6 * p + 5];
      const double* xa = x + 2 * s * p;
      const double* xb = x + 2 * s * (p + m);
      const double* xc = x + 2 * s * (p + 2 * m);
      const double* xd = x + 2 * s * (p + 3 * m);
      double* y0 = y + 2 * s * 4 * p;
      double* y1 = y0 + 2 * s;
      double* y2 = y1 + 2 * s;
      double* y3 = y2 + 2 * s;
      for (std::size_t q = 0; q < s; ++q) {
        const double ar = xa[2 * q], ai = xa[2 * q + 1];
        const double br = xb[2 * q], bi = xb[2 * q + 1];
        const double cr = xc[2 * q], ci = xc[2 * q + 1];
        const double dr = xd[2 * q], di = xd[2 * q + 1];
        const double apcr = ar + cr, apci = ai + ci;
        const double amcr = ar - cr, amci = ai - ci;
        const double bpdr = br + dr, bpdi = bi + di;
        // jsgn * j * (b - d)
        const double jbmdr = -jsgn * (bi - di), jbmdi = jsgn * (br - dr);
        y0[2 * q] = apcr + bpdr;
        y0[2 * q + 1] = apci + bpdi;
        const double t1r = amcr + jbmdr, t1i = amci + jbmdi;
        const double t2r = apcr - bpdr, t2i = apci - bpdi;
        const double t3r = amcr - jbmdr, t3i = amci - jbmdi;
        y1[2 * q] = t1r * w1r - t1i * w1i;
        y1[2 * q + 1] = t1r * w1i + t1i * w1r;
        y2[2 * q] = t2r * w2r - t2i * w2i;
        y2[2 * q + 1] = t2r * w2i + t2i * w2r;
        y3[2 * q] = t3r * w3r - t3i * w3i;
        y3[2 * q + 1] = t3r * w3i + t3i * w3r;
      }
    }
    std::swap(x, y);
  }
  if (n0 == 2) {
    // Radix-2 tail; its only twiddle is 1.
    for (std::size_t q = 0; q < s; ++q) {
      const double ar = x[2 * q], ai = x[2 * q + 1];
      const double br = x[2 * (q + s)], bi = x[2 * (q + s) + 1];
      y[2 * q] = ar + br;
      y[2 * q + 1] = ai + bi;
      y[2 * (q + s)] = ar - br;
      y[2 * (q + s) + 1] = ai - bi;
    }
    std::swap(x, y);
  }
  if (x != reinterpret_cast<double*>(data.data())) {
    std::copy(x, x + 2 * n, reinterpret_cast<double*>(data.data()));
  }
}

std::vector<std::uint32_t> build_swap_pairs(std::size_t n) {
  std::vector<std::uint32_t> pairs;
  std::size_t j = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i < j) {
      pairs.push_back(static_cast<std::uint32_t>(i));
      pairs.push_back(static_cast<std::uint32_t>(j));
    }
    std::size_t mask = n >> 1;
    while (j & mask) {
      j ^= mask;
      mask >>= 1;
    }
    j |= mask;
  }
  return pairs;
}

}  // namespace

fft_plan::fft_plan(std::size_t n, fft_direction direction)
    : n_(n), direction_(direction) {
  assert(is_power_of_two(n));
  const bool inverse = direction == fft_direction::inverse;
  if (n <= fft_compat_size_limit) {
    swap_pairs_ = build_swap_pairs(n);
    detail::build_compat_twiddles(n, inverse, compat_twiddles_,
                                  compat_offsets_);
    return;
  }
  // Stockham stages consume n0 = n, n/4, n/16, ... down to the radix-2/4
  // tail; each stage stores (w1, w2, w3) per output group p.
  for (std::size_t n0 = n; n0 >= 4; n0 >>= 2) {
    stockham_offsets_.push_back(stockham_twiddles_.size());
    const double angle = (inverse ? two_pi : -two_pi) / static_cast<double>(n0);
    for (std::size_t p = 0; p < n0 / 4; ++p) {
      const cplx w1 = phasor(angle * static_cast<double>(p));
      const cplx w2 = w1 * w1;
      const cplx w3 = w2 * w1;
      stockham_twiddles_.push_back(w1.real());
      stockham_twiddles_.push_back(w1.imag());
      stockham_twiddles_.push_back(w2.real());
      stockham_twiddles_.push_back(w2.imag());
      stockham_twiddles_.push_back(w3.real());
      stockham_twiddles_.push_back(w3.imag());
    }
  }
}

void fft_plan::execute(std::span<cplx> data) const {
  assert(data.size() == n_);
  if (n_ <= fft_compat_size_limit) {
    detail::run_compat_radix2(data, swap_pairs_, compat_twiddles_,
                              compat_offsets_);
    return;
  }
  run_stockham(data, direction_ == fft_direction::inverse,
               stockham_twiddles_, stockham_offsets_);
}

namespace {

// Plan cache indexed by (direction, log2 n). Slots are filled once under a
// mutex and published with a release store; steady-state lookups are a
// single acquire load. Plans are never destroyed, so references handed out
// stay valid for the life of the process.
constexpr std::size_t kMaxLog2 = 40;
std::atomic<const fft_plan*> g_plan_cache[2][kMaxLog2 + 1];
std::mutex g_plan_mutex;

}  // namespace

const fft_plan& get_fft_plan(std::size_t n, fft_direction direction) {
  assert(is_power_of_two(n));
  const std::size_t log2n =
      static_cast<std::size_t>(std::countr_zero(n));
  assert(log2n <= kMaxLog2);
  auto& slot = g_plan_cache[direction == fft_direction::inverse ? 1 : 0][log2n];
  if (const fft_plan* plan = slot.load(std::memory_order_acquire)) {
    return *plan;
  }
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  if (const fft_plan* plan = slot.load(std::memory_order_acquire)) {
    return *plan;
  }
  auto plan = std::make_unique<fft_plan>(n, direction);
  const fft_plan* raw = plan.release();
  slot.store(raw, std::memory_order_release);
  return *raw;
}

}  // namespace backfi::dsp
