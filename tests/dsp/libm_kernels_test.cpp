// sincos_block and log_block return libm's exact bits: on 10^6 seeded
// Box-Muller draws each, on crafted edges (zeros, arguments next to
// multiples of pi/2, the extreme uniforms, power-of-two results,
// non-finite and out-of-range inputs), and in a build without AVX2, where
// both are the plain libm loop. The tables are regenerated with
// libquadmath where the toolchain ships it.
#include "dsp/libm_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/math_util.h"
#include "dsp/rng.h"

#if defined(BACKFI_HAVE_QUADMATH)
#include <quadmath.h>
#endif

namespace backfi::dsp {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Counts the elements whose sin or cos differ from libm in any bit
/// (printing the first few), and checks the libm share is sane.
std::size_t sincos_mismatches(const std::vector<double>& x,
                              std::size_t* libm_out = nullptr) {
  std::vector<double> sn(x.size()), cs(x.size());
  const std::size_t libm = sincos_block(x, sn, cs);
  EXPECT_LE(libm, 2 * x.size());
  if (libm_out) *libm_out = libm;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double s, c;
    sin_cos(x[i], s, c);
    const double ref_s = std::sin(x[i]), ref_c = std::cos(x[i]);
    if (bits(sn[i]) != bits(ref_s) || bits(cs[i]) != bits(ref_c) ||
        bits(s) != bits(ref_s) || bits(c) != bits(ref_c)) {
      if (bad++ < 5)
        ADD_FAILURE() << "x = " << std::hexfloat << x[i] << ": sin " << sn[i]
                      << " vs " << ref_s << ", cos " << cs[i] << " vs "
                      << ref_c;
    }
  }
  return bad;
}

std::size_t log_mismatches(const std::vector<double>& x,
                           std::size_t* libm_out = nullptr) {
  std::vector<double> out(x.size());
  const std::size_t libm = log_block(x, out);
  EXPECT_LE(libm, x.size());
  if (libm_out) *libm_out = libm;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ref = std::log(x[i]);
    if (bits(out[i]) != bits(ref) && !(std::isnan(out[i]) && std::isnan(ref))) {
      if (bad++ < 5)
        ADD_FAILURE() << "x = " << std::hexfloat << x[i] << ": log " << out[i]
                      << " vs " << ref;
    }
  }
  return bad;
}

/// The fast path kept most lanes and the fallback ran; without AVX2
/// every output is a libm call.
void expect_both_paths(std::size_t libm, std::size_t outputs) {
  EXPECT_GT(libm, 0u) << "the libm fallback never ran";
  if (detail::libm_kernels_avx2())
    EXPECT_LT(libm, outputs / 5) << "the vector path kept too few lanes";
  else
    EXPECT_EQ(libm, outputs);
}

constexpr std::size_t kDraws = 1000000;

TEST(LibmKernelsTest, SincosBlockMatchesLibmOnBoxMullerAngles) {
  rng gen(20260101);
  std::vector<double> x(kDraws);
  for (double& v : x) v = two_pi * gen.uniform();
  std::size_t libm = 0;
  EXPECT_EQ(sincos_mismatches(x, &libm), 0u);
  expect_both_paths(libm, 2 * x.size());
}

TEST(LibmKernelsTest, SincosBlockMatchesLibmOnCfoPhases) {
  // apply_cfo's phases 2*pi*(f0*t + d*t^2/2): thousands of radians over a
  // long capture, both signs (the 2^17 reduction bound is a crafted edge).
  rng gen(7);
  std::vector<double> x(kDraws / 4);
  for (double& v : x) v = gen.uniform(-0x1p12, 0x1p12);
  std::size_t libm = 0;
  EXPECT_EQ(sincos_mismatches(x, &libm), 0u);
  expect_both_paths(libm, 2 * x.size());
}

TEST(LibmKernelsTest, LogBlockMatchesLibmOnBoxMullerRadii) {
  rng gen(20260102);
  std::vector<double> x(kDraws);
  for (double& v : x) {
    do {
      v = gen.uniform();
    } while (v <= 0.0);
  }
  std::size_t libm = 0;
  EXPECT_EQ(log_mismatches(x, &libm), 0u);
  expect_both_paths(libm, x.size());
}

TEST(LibmKernelsTest, LogBlockMatchesLibmAcrossBinades) {
  rng gen(9);
  std::vector<double> x(kDraws / 4);
  for (double& v : x)
    v = std::ldexp(1.0 + gen.uniform(),
                   -1022 + static_cast<int>(gen.uniform_int(2046)));
  EXPECT_EQ(log_mismatches(x), 0u);
}

/// x and its neighbours up to `steps` ulps away on each side.
void push_neighbourhood(std::vector<double>& out, double x, int steps) {
  double up = x, down = x;
  out.push_back(x);
  for (int s = 0; s < steps; ++s) {
    up = std::nextafter(up, HUGE_VAL);
    down = std::nextafter(down, -HUGE_VAL);
    out.push_back(up);
    out.push_back(down);
  }
}

TEST(LibmKernelsTest, SincosBlockMatchesLibmOnCraftedEdges) {
  std::vector<double> x = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           0x1p-30,
                           -0x1p-21,
                           0x1p-20,
                           0x1p17,
                           -0x1p17,
                           std::nextafter(0x1p17, HUGE_VAL),
                           1e22,
                           -1e300,
                           std::numeric_limits<double>::max(),
                           HUGE_VAL,
                           -HUGE_VAL,
                           std::numeric_limits<double>::quiet_NaN(),
                           two_pi * 0x1p-53,
                           two_pi * (1.0 - 0x1p-53)};
  // Within 2^-40 of k*pi/2 (sin or cos next to a zero, or next to +-1).
  for (int k = -64; k <= 64; ++k) {
    const double base = k * (pi / 2);
    for (double off : {0.0, 0x1p-40, -0x1p-40, 0x1p-45, -0x1p-52, 0x1p-60})
      push_neighbourhood(x, base + off, 2);
  }
  // Results that round to powers of two: sin(pi/6) = 1/2, cos(pi/3) = 1/2,
  // sin(asin(2^-k)), cos near 1, and their neighbours.
  for (int k = 1; k <= 30; ++k) {
    push_neighbourhood(x, std::asin(std::ldexp(1.0, -k)), 3);
    push_neighbourhood(x, std::acos(std::ldexp(1.0, -k)), 3);
  }
  for (int k = 1; k <= 26; ++k) push_neighbourhood(x, std::ldexp(1.0, -k), 2);
  std::size_t libm = 0;
  EXPECT_EQ(sincos_mismatches(x, &libm), 0u);
  EXPECT_GT(libm, 0u);
}

TEST(LibmKernelsTest, LogBlockMatchesLibmOnCraftedEdges) {
  std::vector<double> x = {0x1p-53,
                           1.0 - 0x1p-53,
                           1.0,
                           0.5,
                           2.0,
                           0x1.6p-1,
                           0x1.6p0,
                           0.0,
                           -0.0,
                           -1.0,
                           std::numeric_limits<double>::denorm_min(),
                           0x1p-1030,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           HUGE_VAL,
                           -HUGE_VAL,
                           std::numeric_limits<double>::quiet_NaN()};
  for (double v : {1.0, 0x1p-53, 1.0 - 0x1p-53, 0x1.6p-1, 0x1.6p0})
    push_neighbourhood(x, v, 8);
  // Results that round to powers of two: log(e^(2^k)) for k = -8..9, and
  // every exact power of two argument (log 2^k = k ln 2).
  for (int k = -8; k <= 9; ++k)
    push_neighbourhood(x, std::exp(std::ldexp(1.0, k)), 3);
  for (int k = -1074; k <= 1023; ++k) x.push_back(std::ldexp(1.0, k));
  // Every table interval's end points.
  for (std::uint64_t i = 0; i <= 128; ++i) {
    const std::uint64_t b = 0x3fe6000000000000ULL + (i << 45);
    double v;
    std::memcpy(&v, &b, sizeof v);
    push_neighbourhood(x, v, 2);
  }
  std::size_t libm = 0;
  EXPECT_EQ(log_mismatches(x, &libm), 0u);
  EXPECT_GT(libm, 0u);
}

TEST(LibmKernelsTest, EveryBlockLengthAndOffset) {
  // The vector loop runs over groups of 4 within chunks of 256; the tail
  // and chunk seams must not shift a lane.
  rng gen(3);
  std::vector<double> angle(1031), u(1031);
  for (std::size_t i = 0; i < angle.size(); ++i) {
    angle[i] = two_pi * gen.uniform();
    u[i] = gen.uniform() + 0x1p-60;
  }
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 255u, 256u, 257u, 1031u}) {
    for (std::size_t off : {0u, 1u}) {
      if (off + n > angle.size()) continue;
      const std::vector<double> a(angle.begin() + off, angle.begin() + off + n);
      const std::vector<double> v(u.begin() + off, u.begin() + off + n);
      EXPECT_EQ(sincos_mismatches(a), 0u) << n << " at " << off;
      EXPECT_EQ(log_mismatches(v), 0u) << n << " at " << off;
    }
  }
}

TEST(LibmKernelsTest, RejectsMismatchedSpanSizes) {
  std::vector<double> x(8, 1.0), a(8), b(7);
  EXPECT_THROW(sincos_block(x, a, b), std::invalid_argument);
  EXPECT_THROW(sincos_block(x, b, a), std::invalid_argument);
  EXPECT_THROW(log_block(x, b), std::invalid_argument);
  EXPECT_EQ(sincos_block({}, {}, {}), 0u);
  EXPECT_EQ(log_block({}, {}), 0u);
}

#if defined(BACKFI_HAVE_QUADMATH)

void split(__float128 v, double& hi, double& lo) {
  hi = static_cast<double>(v);
  lo = static_cast<double>(v - static_cast<__float128>(hi)) + 0.0;
}

std::string row_literal(const std::array<double, 4>& row, int n) {
  std::string s = "    {";
  char buf[64];
  for (int c = 0; c < n; ++c) {
    std::snprintf(buf, sizeof buf, c ? ", %a" : "%a", row[c]);
    s += buf;
  }
  return s + (n == 3 ? ", 0.0},\n" : "},\n");
}

TEST(LibmKernelsTest, TablesMatchLibquadmath) {
  // sin/cos(j*pi/128): the first-octant value placed by quadrant, so the
  // rows j = 0 mod 64 are exact.
  std::string want;
  bool sincos_ok = true;
  for (int j = 0; j < 256; ++j) {
    const __float128 a = static_cast<__float128>(j % 64) * acosq(-1) / 128;
    const __float128 s = j % 64 ? sinq(a) : 0, c = j % 64 ? cosq(a) : 1;
    const __float128 sv[4] = {s, c, -s, -c}, cv[4] = {c, -s, -c, s};
    std::array<double, 4> row;
    split(sv[j / 64], row[0], row[2]);
    split(cv[j / 64], row[1], row[3]);
    row[0] += 0.0;
    row[1] += 0.0;
    want += row_literal(row, 4);
    for (int c2 = 0; c2 < 4; ++c2)
      sincos_ok &= bits(row[c2]) == bits(detail::sincos_table[j][c2]);
  }
  EXPECT_TRUE(sincos_ok) << "regenerated sincos_table:\n" << want;

  // log: invc = 1/c to 2^-7 (below 1) or 2^-8 (above 1) of the interval
  // midpoint c, 1 next to 1; logc = -log(invc).
  want.clear();
  bool log_ok = true;
  for (int i = 0; i < 128; ++i) {
    const bool below = i < 80;
    const double lo_z = below ? 0x1.6p-1 + i * 0x1p-8 : 1.0 + (i - 80) * 0x1p-7;
    const double width = below ? 0x1p-8 : 0x1p-7;
    const double grid = below ? 0x1p7 : 0x1p8;
    const double invc = (i == 79 || i == 80)
                            ? 1.0
                            : std::nearbyint(grid / (lo_z + width / 2)) / grid;
    std::array<double, 4> row{invc, 0.0, 0.0, 0.0};
    split(-logq(static_cast<__float128>(invc)), row[1], row[2]);
    row[1] += 0.0;
    want += row_literal(row, 3);
    for (int c = 0; c < 4; ++c)
      log_ok &= bits(row[c]) == bits(detail::log_table[i][c]);

    // z*invc - 1 is exact over the interval: z lies on the ulp(z) grid,
    // invc on the 1/grid one, so r is on their product grid and fits 53
    // bits while |r| < 2^53 * ulp(z) / grid. The fast two-sum in log4
    // needs |logc| >= |r| on rows with invc != 1.
    const double ulp_z = below ? 0x1p-53 : 0x1p-52;
    const auto r_at = [invc](double z) {
      return std::fabs(static_cast<double>(static_cast<__float128>(z) * invc - 1));
    };
    const double r_max = std::max(r_at(lo_z), r_at(lo_z + width - ulp_z));
    EXPECT_LT(r_max, 0x1p53 * ulp_z / grid) << "row " << i;
    EXPECT_LT(r_max, 0x1p-7) << "row " << i;
    if (invc != 1.0) {
      EXPECT_GE(std::fabs(row[1]), r_max) << "row " << i;
    }
  }
  EXPECT_TRUE(log_ok) << "regenerated log_table:\n" << want;
}

#endif  // BACKFI_HAVE_QUADMATH

}  // namespace
}  // namespace backfi::dsp
