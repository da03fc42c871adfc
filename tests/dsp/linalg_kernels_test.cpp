// Equivalence suite for the FIR least-squares normal-equations kernel.
//
// The contract under test (dsp/linalg_kernels.h):
//  - vectorized build == scalar seed build, bit for bit, at every size;
//  - the workspace build/factor/solve split, RHS-only rebuilds, and the
//    derived conj-branch Gram reproduce the one-shot fits they replace.
#include "dsp/linalg_kernels.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <cmath>

#include "dsp/linalg.h"
#include "dsp/rng.h"

namespace backfi::dsp {
namespace {

cvec random_vec(rng& gen, std::size_t n) {
  cvec v(n);
  for (auto& s : v) s = gen.complex_gaussian();
  return v;
}

// The seed Gram/RHS accumulation, kept in the test as an independent spelling
// of the reference (default compile flags, std::complex arithmetic).
void reference_normal_equations(const cvec& x, const cvec& y,
                                std::size_t n_taps, cvec& gram, cvec& rhs) {
  const std::size_t n = x.size();
  gram.assign(n_taps * n_taps, cplx{0.0, 0.0});
  rhs.assign(n_taps, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < n_taps; ++i) {
    for (std::size_t j = i; j < n_taps; ++j) {
      cplx acc{0.0, 0.0};
      for (std::size_t t = n_taps - 1; t < n; ++t)
        acc += std::conj(x[t - i]) * x[t - j];
      gram[j * n_taps + i] = acc;
      gram[i * n_taps + j] = std::conj(acc);
    }
  }
  for (std::size_t i = 0; i < n_taps; ++i) {
    cplx acc{0.0, 0.0};
    for (std::size_t t = n_taps - 1; t < n; ++t)
      acc += std::conj(x[t - i]) * y[t];
    rhs[i] = acc;
  }
}

TEST(LinalgKernelsTest, VectorizedBuildMatchesScalarBitExactly) {
  rng gen(901);
  // Odd window lengths on purpose: they exercise the scalar tails of the
  // two-entry lane pairing at every alignment. 19 and 20 are the tiny,
  // edge-dominated windows (fewer usable rows than a wide filter's taps).
  for (const std::size_t n :
       {std::size_t{19}, std::size_t{20}, std::size_t{33}, std::size_t{97},
        std::size_t{313}, std::size_t{601}}) {
    for (std::size_t n_taps = 1; n_taps <= 16; ++n_taps) {
      if (n < n_taps) continue;
      const cvec x = random_vec(gen, n);
      const cvec y = random_vec(gen, n);
      cvec ref_gram, ref_rhs;
      reference_normal_equations(x, y, n_taps, ref_gram, ref_rhs);

      cvec gram(n_taps * n_taps), rhs(n_taps);
      detail::fir_normal_equations_vectorized(x.data(), n, y.data(), n_taps,
                                              gram.data(), rhs.data());
      for (std::size_t k = 0; k < gram.size(); ++k)
        ASSERT_EQ(gram[k], ref_gram[k])
            << "gram n=" << n << " taps=" << n_taps << " k=" << k;
      for (std::size_t k = 0; k < rhs.size(); ++k)
        ASSERT_EQ(rhs[k], ref_rhs[k])
            << "rhs n=" << n << " taps=" << n_taps << " k=" << k;
    }
  }
}

TEST(LinalgKernelsTest, DispatchedFitMatchesSeedImplementationBitExactly) {
  rng gen(904);
  // The production fit must reproduce the seed solve bitwise for
  // in-simulation shapes and tiny windows (the pinned-literal contract):
  // seed Gram/RHS, ridge scaled by the first column's energy, Cholesky.
  for (const auto& [n, n_taps] :
       {std::pair<std::size_t, std::size_t>{320, 5},
        {320, 6}, {320, 8}, {600, 5}, {20, 3}, {16, 8}}) {
    const cvec x = random_vec(gen, n);
    const cvec y = random_vec(gen, n);
    cvec ref_gram, ref_rhs;
    reference_normal_equations(x, y, n_taps, ref_gram, ref_rhs);
    double col_energy = 0.0;
    for (std::size_t t = n_taps - 1; t < n; ++t) col_energy += std::norm(x[t]);
    for (std::size_t i = 0; i < n_taps; ++i)
      ref_gram[i * n_taps + i] += 1e-9 * std::max(col_energy, 1e-30);
    cvec seed = ref_rhs;
    detail::cholesky_factor_in_place(ref_gram.data(), n_taps);
    detail::cholesky_solve_in_place(ref_gram.data(), n_taps, seed.data());

    cvec taps;
    fir_ls_workspace w;
    estimate_fir_least_squares_into(x, y, n_taps, 1e-9, taps, w);
    ASSERT_EQ(taps.size(), seed.size());
    for (std::size_t k = 0; k < n_taps; ++k)
      ASSERT_EQ(taps[k], seed[k]) << "n=" << n << " taps=" << n_taps;
  }
}

TEST(LinalgKernelsTest, RhsRebuildReusingFactorMatchesFreshFit) {
  rng gen(905);
  const cvec x = random_vec(gen, 320);
  const cvec y1 = random_vec(gen, 320);
  const cvec y2 = random_vec(gen, 320);

  cvec ref1, ref2, taps;
  fir_ls_workspace w;
  estimate_fir_least_squares_into(x, y1, 6, 1e-9, ref1, w);
  fir_ls_workspace w2;
  estimate_fir_least_squares_into(x, y2, 6, 1e-9, ref2, w2);

  // Refit round: same excitation, new target — rebuild only the RHS and
  // reuse the Cholesky factor. Same Gram bits give the same factor bits, so
  // both solves must match their fresh-fit counterparts exactly.
  fir_ls_build_rhs(x, y2, w);
  fir_ls_solve(w, taps);
  ASSERT_EQ(taps.size(), ref2.size());
  for (std::size_t k = 0; k < taps.size(); ++k) ASSERT_EQ(taps[k], ref2[k]);

  fir_ls_build_rhs(x, y1, w);
  fir_ls_solve(w, taps);
  for (std::size_t k = 0; k < taps.size(); ++k) ASSERT_EQ(taps[k], ref1[k]);
}

TEST(LinalgKernelsTest, DerivedConjGramMatchesDirectConjBuild) {
  rng gen(906);
  const std::size_t n = 320, n_taps = 6;
  for (const std::size_t edge : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                 std::size_t{32}}) {
    const cvec x = random_vec(gen, n);
    const cvec y = random_vec(gen, n);
    cvec xc(x.size()), yc(y.size() - edge);
    for (std::size_t i = 0; i < x.size(); ++i) xc[i] = std::conj(x[i]);
    for (std::size_t i = 0; i < yc.size(); ++i) yc[i] = y[edge + i];

    // Direct: fit taps of the conjugated, head-trimmed problem from raw
    // samples (what digital_canceller::adapt used to do per packet).
    cvec direct;
    fir_ls_workspace direct_w;
    estimate_fir_least_squares_into(std::span<const cplx>(xc).subspan(edge), yc,
                                    n_taps, 1e-9, direct, direct_w);

    fir_ls_workspace lin, conj_w;
    fir_ls_build(x, y, n_taps, lin);
    fir_ls_derive_conj(x, edge, lin, conj_w);
    fir_ls_build_rhs(std::span<const cplx>(xc).subspan(edge), yc, conj_w);
    fir_ls_factor(conj_w, 1e-9);
    cvec taps;
    fir_ls_solve(conj_w, taps);

    ASSERT_EQ(taps.size(), direct.size());
    for (std::size_t k = 0; k < n_taps; ++k)
      ASSERT_NEAR(std::abs(taps[k] - direct[k]), 0.0,
                  1e-9 * (1.0 + std::abs(direct[k])))
          << "edge=" << edge << " k=" << k;
  }
}

TEST(LinalgKernelsTest, WorkspaceFactorRejectsNonPositiveDefinite) {
  // A rank-deficient excitation (all zeros) with zero ridge cannot be
  // factored; the workspace split must surface the same error the seed
  // solve path threw.
  const cvec x(64, cplx{0.0, 0.0});
  const cvec y(64, cplx{1.0, 0.0});
  fir_ls_workspace w;
  fir_ls_build(x, y, 4, w);
  EXPECT_THROW(fir_ls_factor(w, 0.0), std::runtime_error);
}

}  // namespace
}  // namespace backfi::dsp
