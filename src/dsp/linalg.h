// Small dense complex linear algebra: just enough to solve the regularized
// least-squares problems of channel estimation (system sizes <= a few tens).
//
// estimate_fir_least_squares_into builds its Gram/RHS with the vectorized kernel
// in dsp/linalg_kernels.h, bit-identical to the seed scalar accumulation at
// every size (lanes run across matrix entries, never across time).
#pragma once

#include <span>

#include "dsp/types.h"

namespace backfi::dsp {

/// Reusable state for FIR least-squares fits. gram holds the n_taps x
/// n_taps column-major normal matrix after fir_ls_build, and its Cholesky
/// factor L (lower triangle) after fir_ls_factor. The widely-linear
/// canceller's alternating refits change only the target y, never the
/// excitation, so they rebuild the RHS and reuse the factor.
struct fir_ls_workspace {
  cvec gram;
  cvec rhs;
  double col_energy = 0.0;  ///< pre-ridge gram(0,0).real(): ridge scaling
  std::size_t n_taps = 0;
  bool factored = false;
};

/// Build the pre-ridge normal equations for y[t] = sum_k h[k] x[t-k] over
/// the rows with full filter memory. Requires n_taps >= 1; throws
/// std::invalid_argument when min(|x|, |y|) < n_taps.
void fir_ls_build(std::span<const cplx> x, std::span<const cplx> y,
                  std::size_t n_taps, fir_ls_workspace& w);

/// Rebuild only the RHS against a new target y (same x and n_taps as the
/// preceding fir_ls_build; the Gram/factor are untouched).
void fir_ls_build_rhs(std::span<const cplx> x, std::span<const cplx> y,
                      fir_ls_workspace& w);

/// Derive the normal equations of the conjugated, head-trimmed problem —
/// excitation conj(x)[edge:], same tap count — from an already-built linear
/// workspace: the Gram of conj(x) is the elementwise conjugate of the Gram
/// of x, and trimming `edge` leading rows subtracts `edge` head terms per
/// entry. O(edge * n_taps^2) instead of a fresh O(n_taps * window) build.
/// `lin` must be built over x and not yet factored. The RHS is NOT set;
/// call fir_ls_build_rhs with the conjugated spans.
void fir_ls_derive_conj(std::span<const cplx> x, std::size_t edge,
                        const fir_ls_workspace& lin, fir_ls_workspace& w);

/// Add the energy-scaled ridge to the diagonal and Cholesky-factor the
/// Gram in place. Throws std::runtime_error if not positive definite.
void fir_ls_factor(fir_ls_workspace& w, double ridge);

/// taps := (A^H A + ridge' I)^{-1} rhs using the stored factor.
void fir_ls_solve(const fir_ls_workspace& w, cvec& taps);

/// Least squares for the convolution model y[n] = sum_k h[k] x[n-k]:
/// builds the Toeplitz normal equations from the known input x and the
/// observed output y and writes the length-`n_taps` channel estimate into
/// a reusable taps buffer, with reusable fit state — zero-alloc once warm
/// for per-packet adaptation loops. Only rows where the full filter memory
/// is available are used.
void estimate_fir_least_squares_into(std::span<const cplx> x,
                                     std::span<const cplx> y,
                                     std::size_t n_taps, double ridge,
                                     cvec& taps, fir_ls_workspace& w);

namespace detail {

/// In-place Cholesky A = L L^H on an n x n column-major buffer (lower
/// triangle overwritten with L; upper triangle untouched). Same operation
/// order as the seed implementation — bit-identical factors.
void cholesky_factor_in_place(cplx* a, std::size_t n);

/// Solve L L^H x = b in place over b, given the factored lower triangle.
void cholesky_solve_in_place(const cplx* a, std::size_t n, cplx* b);

}  // namespace detail

}  // namespace backfi::dsp
