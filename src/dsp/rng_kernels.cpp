// Block draw kernels for dsp::rng — the per-TU optimized unit.
//
// This file is compiled with -O3 (and -mavx2 with contraction *off* when
// the host supports it, see src/dsp/CMakeLists.txt) like fd/adc.cpp and
// dsp/fir_kernels.cpp. Contraction must stay off: the combine passes below
// perform the exact multiplies and adds the scalar draw methods perform,
// and a fused multiply-add would change their rounding and break the
// pinned trial literals.
//
// Strategy: the xoshiro256++ stream itself is inherently sequential, but
// the expensive part of Gaussian synthesis is libm (log/sqrt/sincos), not
// the bit generator. Each fill works in blocks of a few hundred draws
// staged in stack arrays: one tight pass over the generator, one pass per
// libm function (letting the CPU pipeline back-to-back calls instead of
// interleaving them with state updates and complex arithmetic), and a
// final combine pass the compiler can vectorize (sqrt and the
// multiply/add combines are IEEE-exact under vectorization; the libm
// passes stay scalar calls, which is what keeps results bit-identical —
// libmvec's vectorized variants round differently and are never used).
// The libm calls cannot be vectorized, but their order is free: the
// sincos pass visits its arguments in value order (sincos_order), which
// keeps glibc's range branches predictable.
//
// Equivalence with the scalar methods — including the Box-Muller u1 > 0
// rejection, the spare carry-in/out, and stream positions — is pinned by
// tests/dsp/rng_kernels_test.cpp.
#include "dsp/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "dsp/vec_ops.h"

namespace backfi::dsp {

namespace {

/// Staged draws per block: big enough to amortize the pass structure,
/// small enough that the staging arrays (5 x 2 KB, plus the sincos
/// order) stay L1-resident.
constexpr std::size_t kBlockPairs = 256;

/// Value buckets for the sincos pass (see sincos_order).
constexpr std::size_t kSincosBuckets = 64;

/// Counting-sorts the block's pair indices by the value of u2 into
/// kSincosBuckets equal-width buckets, so the sincos pass can visit
/// arguments in near-ascending order. glibc's sincos picks its reduction
/// and quadrant code paths by the argument's range; on uniformly random
/// arguments those branches mispredict on a large fraction of calls,
/// while in bucket order consecutive calls take the same path. Only the
/// call order changes: each call still sees the identical argument and
/// writes its result back to the pair's own index.
void sincos_order(const double* u2, std::size_t pairs, std::uint16_t* order) {
  std::uint16_t start[kSincosBuckets + 1] = {};
  std::uint8_t bucket[kBlockPairs];
  for (std::size_t k = 0; k < pairs; ++k) {
    // u2 < 1, and scaling by a power of two is exact, so this is < 64.
    bucket[k] = static_cast<std::uint8_t>(u2[k] * kSincosBuckets);
    ++start[bucket[k] + 1];
  }
  for (std::size_t b = 0; b < kSincosBuckets; ++b) start[b + 1] += start[b];
  for (std::size_t k = 0; k < pairs; ++k)
    order[start[bucket[k]]++] = static_cast<std::uint16_t>(k);
}

}  // namespace

void rng::fill_gaussian(std::span<double> out) {
  const std::size_t n = out.size();
  if (n == 0) return;
  std::size_t i = 0;
  if (have_spare_gaussian_) {
    out[i++] = spare_gaussian_;
    have_spare_gaussian_ = false;
  }

  double u1[kBlockPairs], u2[kBlockPairs];
  double rad[kBlockPairs], sn[kBlockPairs], cs[kBlockPairs];
  std::uint16_t order[kBlockPairs];
  while (i < n) {
    const std::size_t remaining = n - i;
    // Enough pairs to cover the remainder (the final odd value, if any,
    // parks its partner in the spare — exactly the scalar behaviour).
    const std::size_t pairs = std::min(kBlockPairs, (remaining + 1) / 2);

    // Pass 1: the sequential bit generator, with the scalar rejection on
    // u1 (redraws consume the stream exactly like gaussian() does).
    for (std::size_t k = 0; k < pairs; ++k) {
      double a;
      do {
        a = uniform();
      } while (a <= 0.0);
      u1[k] = a;
      u2[k] = uniform();
    }
    // Pass 2: scalar libm log (pipelined back to back).
    for (std::size_t k = 0; k < pairs; ++k) rad[k] = -2.0 * std::log(u1[k]);
    // Pass 3: sqrt — IEEE-exact, so the compiler may vectorize it.
    for (std::size_t k = 0; k < pairs; ++k) rad[k] = std::sqrt(rad[k]);
    // Pass 4: scalar libm sin/cos in bucket order (sincos_order). glibc's
    // sincos computes both from one argument reduction and returns
    // bit-identical values to the separate calls; elsewhere fall back to
    // exactly the scalar method's calls.
    sincos_order(u2, pairs, order);
    for (std::size_t j = 0; j < pairs; ++j) {
      const std::size_t k = order[j];
#if defined(__GLIBC__)
      ::sincos(two_pi * u2[k], &sn[k], &cs[k]);
#else
      sn[k] = std::sin(two_pi * u2[k]);
      cs[k] = std::cos(two_pi * u2[k]);
#endif
    }
    // Pass 5: combine in draw order — cos first, sin second (the scalar
    // method returns radius*cos and parks radius*sin as the spare).
    for (std::size_t k = 0; k < pairs; ++k) {
      out[i++] = rad[k] * cs[k];
      if (i < n) {
        out[i++] = rad[k] * sn[k];
      } else {
        spare_gaussian_ = rad[k] * sn[k];
        have_spare_gaussian_ = true;
      }
    }
  }
}

void rng::add_scaled_complex_gaussian(std::span<cplx> inout, double amp,
                                      std::span<double> record) {
  // Scalar reference: v += amp * complex_gaussian(), i.e. per component
  // z = scale * g, then v += amp * z — two separate multiplies, never
  // (amp*scale)*g, and never fused into the add (contraction is off in
  // this TU). The recorded z are exactly what a later add_scaled_in_place
  // replay multiplies by its own amplitude.
  constexpr double scale = 0.7071067811865476;  // 1/sqrt(2)
  const std::size_t n = inout.size();
  if (!record.empty() && record.size() != 2 * n)
    throw std::invalid_argument(
        "add_scaled_complex_gaussian: record must hold 2 * inout.size() "
        "doubles");
  double g[2 * kBlockPairs];
  std::size_t i = 0;
  // std::complex<double> is layout-compatible with double[2]; the flat
  // view lets the combine pass vectorize.
  double* flat = reinterpret_cast<double*>(inout.data());
  while (i < n) {
    const std::size_t m = std::min(kBlockPairs, n - i);
    // Draw straight into the record when there is one, else into g.
    double* z = record.empty() ? g : record.data() + 2 * i;
    fill_gaussian(std::span<double>(z, 2 * m));
    for (std::size_t j = 0; j < 2 * m; ++j) {
      const double zj = scale * z[j];
      z[j] = zj;
      flat[2 * i + j] += amp * zj;
    }
    i += m;
  }
}

// Declared in vec_ops.h; lives here so it picks up the AVX2 +
// contraction-off flags of this TU (see the header comment for why the
// rounding must match the scalar loop exactly).
void add_scaled_in_place(std::span<cplx> y, std::span<const double> x,
                         double s) {
  const std::size_t n = y.size();
  double* yd = reinterpret_cast<double*>(y.data());
  for (std::size_t i = 0; i < 2 * n; ++i) yd[i] += s * x[i];
}

bool detail::rng_kernels_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace backfi::dsp
