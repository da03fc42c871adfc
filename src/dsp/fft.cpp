#include "dsp/fft.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "dsp/math_util.h"

// NOTE: this translation unit must keep the default build flags (no FMA /
// per-file fast-math overrides). Both the reference transform and the
// plan's twiddle tables and kernel live here precisely so their
// floating-point rounding matches the seed implementation bit for bit.

namespace backfi::dsp {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

namespace {

void bit_reverse_permute(std::span<cplx> data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i < j) std::swap(data[i], data[j]);
    std::size_t mask = n >> 1;
    while (j & mask) {
      j ^= mask;
      mask >>= 1;
    }
    j |= mask;
  }
}

void transform(std::span<cplx> data) {
  const std::size_t n = data.size();
  bit_reverse_permute(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const cplx w_len = phasor(-two_pi / static_cast<double>(len));
    for (std::size_t start = 0; start < n; start += len) {
      cplx w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx even = data[start + k];
        const cplx odd = data[start + k + len / 2] * w;
        data[start + k] = even + odd;
        data[start + k + len / 2] = even - odd;
        w *= w_len;
      }
    }
  }
}

constexpr std::size_t max_log2_size = 40;

void check_size(std::size_t n) {
  if (!is_power_of_two(n) || n > (std::size_t{1} << max_log2_size))
    throw std::invalid_argument(
        "fft: size must be a power of two in [1, 2^40]");
}

std::vector<std::size_t> build_swap_pairs(std::size_t n) {
  std::vector<std::size_t> pairs;
  std::size_t j = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i < j) {
      pairs.push_back(i);
      pairs.push_back(j);
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

// Plan cache indexed by (direction, log2 n). Slots are filled once under a
// mutex and published with a release store; steady-state lookups are a
// single acquire load. Plans are never destroyed, so references handed out
// stay valid for the life of the process.
std::atomic<const fft_plan*> g_plan_cache[2][max_log2_size + 1];
std::mutex g_plan_mutex;

}  // namespace

fft_plan::fft_plan(std::size_t n, fft_direction direction)
    : n_(n), direction_(direction) {
  check_size(n);
  swap_pairs_ = build_swap_pairs(n);
  // Same per-stage recurrence as transform() above: the tabled values are
  // the exact doubles the seed computed on the fly.
  const bool inverse = direction == fft_direction::inverse;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    offsets_.push_back(twiddles_.size());
    const double angle = (inverse ? two_pi : -two_pi) / static_cast<double>(len);
    const cplx w_len = phasor(angle);
    cplx w{1.0, 0.0};
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddles_.push_back(w);
      w *= w_len;
    }
  }
}

void fft_plan::execute(std::span<cplx> data) const {
  if (data.size() != n_)
    throw std::invalid_argument("fft_plan::execute: span size != plan size");
  for (std::size_t p = 0; p + 1 < swap_pairs_.size(); p += 2) {
    std::swap(data[swap_pairs_[p]], data[swap_pairs_[p + 1]]);
  }
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1, ++stage) {
    const std::size_t half = len / 2;
    const cplx* w = twiddles_.data() + offsets_[stage];
    for (std::size_t start = 0; start < n_; start += len) {
      cplx* a = data.data() + start;
      cplx* b = a + half;
      for (std::size_t k = 0; k < half; ++k) {
        // Explicit real arithmetic: identical value sequence to the seed's
        // std::complex butterfly for finite inputs, but lets the compiler
        // keep everything in registers.
        const double are = a[k].real(), aim = a[k].imag();
        const double bre = b[k].real(), bim = b[k].imag();
        const double wre = w[k].real(), wim = w[k].imag();
        const double ore = bre * wre - bim * wim;
        const double oim = bre * wim + bim * wre;
        a[k] = {are + ore, aim + oim};
        b[k] = {are - ore, aim - oim};
      }
    }
  }
}

const fft_plan& get_fft_plan(std::size_t n, fft_direction direction) {
  check_size(n);
  const auto log2n = static_cast<std::size_t>(std::countr_zero(n));
  auto& slot = g_plan_cache[direction == fft_direction::inverse ? 1 : 0][log2n];
  if (const fft_plan* plan = slot.load(std::memory_order_acquire)) {
    return *plan;
  }
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  if (const fft_plan* plan = slot.load(std::memory_order_acquire)) {
    return *plan;
  }
  const fft_plan* raw = new fft_plan(n, direction);
  slot.store(raw, std::memory_order_release);
  return *raw;
}

void fft_in_place_reference(std::span<cplx> data) {
  check_size(data.size());
  transform(data);
}

}  // namespace backfi::dsp
