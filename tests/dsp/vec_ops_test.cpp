#include "dsp/vec_ops.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dsp/rng.h"

namespace backfi::dsp {
namespace {

TEST(VecOpsTest, EnergyOfKnownVector) {
  const cvec x = {{3.0, 4.0}, {0.0, 0.0}, {1.0, 0.0}};
  EXPECT_DOUBLE_EQ(energy(x), 25.0 + 0.0 + 1.0);
}

TEST(VecOpsTest, MeanPowerEmptyIsZero) {
  const cvec x;
  EXPECT_DOUBLE_EQ(mean_power(x), 0.0);
}

TEST(VecOpsTest, RmsOfConstant) {
  const cvec x(16, cplx{0.0, 2.0});
  EXPECT_DOUBLE_EQ(rms(x), 2.0);
}

TEST(VecOpsTest, AddSubtractRoundTrip) {
  rng gen(6);
  cvec x(32), y(32);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : y) v = gen.complex_gaussian();
  cvec minus_x(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) minus_x[i] = -x[i];
  cvec z = y;
  add_in_place(z, x);
  add_in_place(z, minus_x);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(std::abs(z[i] - y[i]), 0.0, 1e-12);
}

TEST(VecOpsTest, HadamardMultipliesElementwise) {
  const cvec x = {{1.0, 0.0}, {0.0, 2.0}};
  const cvec y = {{0.0, 1.0}, {0.0, 1.0}};
  const cvec z = hadamard(x, y);
  EXPECT_NEAR(std::abs(z[0] - cplx(0.0, 1.0)), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(z[1] - cplx(-2.0, 0.0)), 0.0, 1e-15);
}

TEST(VecOpsTest, RejectsMismatchedSpanSizes) {
  // A shorter x would be read past its end: a typed error in every build,
  // not an assert that Release compiles away.
  cvec y(8, cplx{1.0, 0.0});
  const cvec shorter(5, cplx{1.0, 0.0});
  const cvec longer(9, cplx{1.0, 0.0});
  EXPECT_THROW(add_in_place(y, shorter), std::invalid_argument);
  EXPECT_THROW(add_in_place(y, longer), std::invalid_argument);
  EXPECT_THROW(hadamard(y, shorter), std::invalid_argument);
  EXPECT_THROW(hadamard(shorter, y), std::invalid_argument);
  cvec out;
  EXPECT_THROW(hadamard_into(y, shorter, out), std::invalid_argument);
  EXPECT_THROW(hadamard_into(shorter, y, out), std::invalid_argument);
  // Nothing was written before the check.
  for (const cplx& v : y) EXPECT_EQ(v, cplx(1.0, 0.0));
}

}  // namespace
}  // namespace backfi::dsp
