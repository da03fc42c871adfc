#include "wifi/ofdm_kernels.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>

#include "dsp/fft.h"
#include "wifi/ofdm.h"

namespace backfi::wifi::detail {

namespace {

// Four doubles, one per symbol of a pass, as GCC's generic vector type:
// its +, - and * are the per-lane IEEE operations. On an AVX2 build each is
// one ymm instruction; without AVX2 the compiler splits the same lane loop
// into narrower (SSE2) operations, which round identically. The TU keeps
// -ffp-contract=off and never gets -mfma, so every product and sum is
// rounded on its own, as in fft_plan::execute.
typedef double lane4 __attribute__((vector_size(4 * sizeof(double))));
constexpr std::size_t kLanes = 4;

// The 64-point inverse plan's tables in the order the pass reads them:
// order[k] is the bin that sits at position k once the plan's swap pairs
// have run (applying the swaps to an index array and gathering through it
// moves the same values as swapping the data), then the plan's twiddles
// and stage offsets as they are.
struct pass_tables {
  std::array<std::uint8_t, fft_size> order{};
  const dsp::fft_plan* plan = nullptr;
};

const pass_tables& tables() {
  static const pass_tables t = [] {
    pass_tables out;
    out.plan = &dsp::get_fft_plan(fft_size, dsp::fft_direction::inverse);
    for (std::size_t k = 0; k < fft_size; ++k)
      out.order[k] = static_cast<std::uint8_t>(k);
    const auto swaps = out.plan->swap_pairs();
    for (std::size_t p = 0; p + 1 < swaps.size(); p += 2)
      std::swap(out.order[swaps[p]], out.order[swaps[p + 1]]);
    return out;
  }();
  return t;
}

// One pass: lane j reads the bins of src[j] and writes the scaled body to
// dst[j] (the same body for in-place lanes; every read happens before the
// first write).
void transform_pass(const std::array<const double*, kLanes>& src,
                    const std::array<double*, kLanes>& dst, double tx_scale) {
  const pass_tables& t = tables();
  lane4 re[fft_size], im[fft_size];
  for (std::size_t k = 0; k < fft_size; ++k) {
    const std::size_t b = 2 * std::size_t{t.order[k]};
    re[k] = lane4{src[0][b], src[1][b], src[2][b], src[3][b]};
    im[k] = lane4{src[0][b + 1], src[1][b + 1], src[2][b + 1], src[3][b + 1]};
  }

  // fft_plan::execute's radix-2 stages, lane by lane: the same twiddle, the
  // same products and sums in the same order for every butterfly.
  const std::span<const cplx> twiddles = t.plan->twiddles();
  const std::span<const std::size_t> offsets = t.plan->stage_offsets();
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= fft_size; len <<= 1, ++stage) {
    const std::size_t half = len / 2;
    const cplx* w = twiddles.data() + offsets[stage];
    for (std::size_t start = 0; start < fft_size; start += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[k].real(), wi = w[k].imag();
        const lane4 wre = {wr, wr, wr, wr};
        const lane4 wim = {wi, wi, wi, wi};
        const lane4 are = re[start + k], aim = im[start + k];
        const lane4 bre = re[start + k + half], bim = im[start + k + half];
        const lane4 ore = bre * wre - bim * wim;
        const lane4 oim = bre * wim + bim * wre;
        re[start + k] = are + ore;
        im[start + k] = aim + oim;
        re[start + k + half] = are - ore;
        im[start + k + half] = aim - oim;
      }
    }
  }

  // v *= 1/64, then v *= tx_scale: two multiplies per component.
  constexpr double inv_n = 1.0 / static_cast<double>(fft_size);
  const lane4 inv = {inv_n, inv_n, inv_n, inv_n};
  const lane4 scale = {tx_scale, tx_scale, tx_scale, tx_scale};
  for (std::size_t k = 0; k < fft_size; ++k) {
    const lane4 r = (re[k] * inv) * scale;
    const lane4 i = (im[k] * inv) * scale;
    for (std::size_t j = 0; j < kLanes; ++j) {
      dst[j][2 * k] = r[j];
      dst[j][2 * k + 1] = i[j];
    }
  }
}

}  // namespace

void inverse_transform_symbols(cplx* bodies, std::size_t n, std::size_t stride,
                               double tx_scale) {
  // Spare lanes of the last pass read zero bins and write to a local sink.
  alignas(32) static const double zero_body[2 * fft_size] = {};
  alignas(32) double sink[2 * fft_size];
  for (std::size_t s0 = 0; s0 < n; s0 += kLanes) {
    std::array<const double*, kLanes> src;
    std::array<double*, kLanes> dst;
    for (std::size_t j = 0; j < kLanes; ++j) {
      if (s0 + j < n) {
        double* body = reinterpret_cast<double*>(bodies + (s0 + j) * stride);
        src[j] = body;
        dst[j] = body;
      } else {
        src[j] = zero_body;
        dst[j] = sink;
      }
    }
    transform_pass(src, dst, tx_scale);
  }
}

bool ofdm_kernels_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace backfi::wifi::detail
