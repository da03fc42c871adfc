#include "dsp/linalg.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "dsp/fir.h"
#include "dsp/rng.h"

namespace backfi::dsp {
namespace {

/// estimate_fir_least_squares_into on fresh taps and workspace.
cvec fir_estimate(std::span<const cplx> x, std::span<const cplx> y,
                  std::size_t n_taps, double ridge = 1e-9) {
  cvec taps;
  fir_ls_workspace w;
  estimate_fir_least_squares_into(x, y, n_taps, ridge, taps, w);
  return taps;
}

/// Solve the n x n Hermitian positive-definite system A x = b (A column-
/// major) with the in-place Cholesky kernels fir_ls_factor/fir_ls_solve run.
cvec solve_hpd(cvec a, std::size_t n, cvec b) {
  detail::cholesky_factor_in_place(a.data(), n);
  detail::cholesky_solve_in_place(a.data(), n, b.data());
  return b;
}

/// Reference: min_x ||A x - b||^2 + ridge ||x||^2 over a materialized m x n
/// column-major design matrix, via the normal equations
/// (A^H A + ridge I) x = A^H b.
cvec least_squares(const cvec& a, std::size_t m, std::size_t n,
                   const cvec& b, double ridge = 0.0) {
  const auto at = [&](std::size_t r, std::size_t c) { return a[c * m + r]; };
  cvec gram(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      cplx acc{0.0, 0.0};
      for (std::size_t r = 0; r < m; ++r) acc += std::conj(at(r, i)) * at(r, j);
      gram[j * n + i] = acc;
      gram[i * n + j] = std::conj(acc);
    }
    gram[i * n + i] += ridge;
  }
  cvec rhs(n, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t r = 0; r < m; ++r) rhs[i] += std::conj(at(r, i)) * b[r];
  return solve_hpd(std::move(gram), n, std::move(rhs));
}

TEST(LinalgTest, SolveIdentitySystem) {
  cvec a(9);
  for (std::size_t i = 0; i < 3; ++i) a[i * 3 + i] = 1.0;
  const cvec b = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const cvec x = solve_hpd(a, 3, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(std::abs(x[i] - b[i]), 0.0, 1e-12);
}

TEST(LinalgTest, SolveKnownHermitianSystem) {
  // A = [[2, j], [-j, 2]] is Hermitian positive definite.
  const cvec a = {2.0, cplx{0.0, -1.0}, cplx{0.0, 1.0}, 2.0};
  const cvec x_true = {{1.0, -1.0}, {2.0, 0.5}};
  cvec b(2);
  b[0] = a[0] * x_true[0] + a[2] * x_true[1];
  b[1] = a[1] * x_true[0] + a[3] * x_true[1];
  const cvec x = solve_hpd(a, 2, b);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-12);
}

TEST(LinalgTest, SolveRejectsNonPositiveDefinite) {
  const cvec a = {1.0, 0.0, 0.0, -1.0};  // indefinite
  const cvec b = {{1.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW(solve_hpd(a, 2, b), std::runtime_error);
}

// The two checks below hold the test-local least_squares reference to its
// definition, so the bit-identity test at the end compares against a
// solver known to be right.
TEST(LinalgTest, LeastSquaresRecoversExactSolution) {
  rng gen(42);
  const std::size_t m = 20, n = 4;
  cvec a(m * n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) a[c * m + r] = gen.complex_gaussian();
  cvec x_true(n);
  for (auto& v : x_true) v = gen.complex_gaussian();
  cvec b(m, cplx{0.0, 0.0});
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) b[r] += a[c * m + r] * x_true[c];

  const cvec x = least_squares(a, m, n, b);
  for (std::size_t c = 0; c < n; ++c)
    EXPECT_NEAR(std::abs(x[c] - x_true[c]), 0.0, 1e-9);
}

TEST(LinalgTest, RidgeShrinksSolutionNorm) {
  rng gen(43);
  const std::size_t m = 16, n = 4;
  cvec a(m * n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) a[c * m + r] = gen.complex_gaussian();
  cvec b(m);
  for (auto& v : b) v = gen.complex_gaussian();

  const cvec x_plain = least_squares(a, m, n, b, 0.0);
  const cvec x_ridge = least_squares(a, m, n, b, 100.0);
  double norm_plain = 0.0, norm_ridge = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    norm_plain += std::norm(x_plain[c]);
    norm_ridge += std::norm(x_ridge[c]);
  }
  EXPECT_LT(norm_ridge, norm_plain);
}

TEST(LinalgTest, FirEstimateRecoversChannelNoiseless) {
  rng gen(44);
  cvec x(400);
  for (auto& v : x) v = gen.complex_gaussian();
  const cvec h_true = {{0.8, 0.1}, {0.0, -0.3}, {0.05, 0.02}};
  const cvec y = convolve_same(x, h_true);

  const cvec h_est = fir_estimate(x, y, h_true.size());
  ASSERT_EQ(h_est.size(), h_true.size());
  for (std::size_t k = 0; k < h_true.size(); ++k)
    EXPECT_NEAR(std::abs(h_est[k] - h_true[k]), 0.0, 1e-6);
}

TEST(LinalgTest, FirEstimateToleratesNoise) {
  rng gen(45);
  cvec x(2000);
  for (auto& v : x) v = gen.complex_gaussian();
  const cvec h_true = {{1.0, 0.0}, {-0.4, 0.2}};
  cvec y = convolve_same(x, h_true);
  for (auto& v : y) v += 0.01 * gen.complex_gaussian();

  const cvec h_est = fir_estimate(x, y, h_true.size());
  for (std::size_t k = 0; k < h_true.size(); ++k)
    EXPECT_NEAR(std::abs(h_est[k] - h_true[k]), 0.0, 0.01);
}

TEST(LinalgTest, FirEstimateRejectsTooFewSamples) {
  const cvec x(4, cplx{1.0, 0.0});
  const cvec y(4, cplx{1.0, 0.0});
  EXPECT_THROW(fir_estimate(x, y, 8), std::invalid_argument);
}


TEST(LinalgTest, MatrixFreeFirEstimateMatchesMaterializedNormalEquations) {
  rng gen(77);
  for (const std::size_t n_taps :
       {std::size_t{1}, std::size_t{5}, std::size_t{8}}) {
    cvec x(220), y(220);
    for (auto& v : x) v = gen.complex_gaussian();
    for (auto& v : y) v = gen.complex_gaussian();
    const cvec fast = fir_estimate(x, y, n_taps, 1e-9);

    // Reference: materialize the design matrix and go through
    // least_squares(), exactly as the pre-refactor implementation did. The
    // matrix-free path keeps the same accumulation order, so the estimates
    // must match bit for bit.
    const std::size_t m = x.size() - (n_taps - 1);
    cvec a(m * n_taps);
    cvec b(m);
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t row_time = r + n_taps - 1;
      for (std::size_t k = 0; k < n_taps; ++k) a[k * m + r] = x[row_time - k];
      b[r] = y[row_time];
    }
    double col_energy = 0.0;
    for (std::size_t r = 0; r < m; ++r) col_energy += std::norm(a[r]);
    const cvec ref = least_squares(a, m, n_taps, b,
                                   1e-9 * std::max(col_energy, 1e-30));

    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k)
      ASSERT_EQ(fast[k], ref[k]) << "n_taps " << n_taps << " tap " << k;
  }
}

}  // namespace
}  // namespace backfi::dsp
