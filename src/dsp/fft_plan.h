// Precomputed FFT execution plans.
//
// The seed transform re-derived its twiddle factors with a per-butterfly
// complex recurrence on every call; every OFDM symbol paid that cost again.
// A plan caches everything that depends only on (size, direction): twiddle
// tables, the bit-reversal permutation, and — for large transforms — the
// Stockham stage tables. Plans are immutable after construction and shared
// process-wide through `get_fft_plan`, so they are safe to use from the
// sim::sweep_for worker threads.
//
// Two execution paths, chosen by size:
//  - n <= fft_compat_size_limit: tabled radix-2 whose butterflies are
//    bit-identical to the seed implementation. The WiFi PHY only ever uses
//    64-point transforms, so every simulation result (and therefore every
//    Monte-Carlo regression anchor) is unchanged by the plan rewrite.
//  - n > fft_compat_size_limit: Stockham radix-4 autosort (radix-2 tail for
//    odd log2 n). No bit-reversal pass, contiguous stores, ~2.5x fewer
//    memory sweeps; equivalent to the reference within ~1e-11 relative.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace backfi::dsp {

/// Largest size executed on the compat (bit-identical-to-seed) radix-2 path.
inline constexpr std::size_t fft_compat_size_limit = 64;

enum class fft_direction { forward, inverse };

class fft_plan {
 public:
  /// Build a plan for one size (power of two >= 1) and direction.
  fft_plan(std::size_t n, fft_direction direction);

  std::size_t size() const { return n_; }
  fft_direction direction() const { return direction_; }

  /// Execute the transform in place. No normalization in either direction
  /// (callers scale the inverse by 1/N, as the seed implementation did).
  /// data.size() must equal size(). Thread-safe: the plan is read-only and
  /// scratch space is thread-local.
  void execute(std::span<cplx> data) const;

 private:
  std::size_t n_;
  fft_direction direction_;

  // Compat radix-2 path (n <= fft_compat_size_limit): precomputed swap
  // pairs of the bit-reversal permutation plus per-stage twiddle tables
  // built with the seed's exact recurrence.
  std::vector<std::uint32_t> swap_pairs_;
  cvec compat_twiddles_;
  std::vector<std::size_t> compat_offsets_;

  // Stockham radix-4 path (larger n): per-stage (w1, w2, w3) twiddle
  // triples, interleaved re/im, followed by the radix-2 tail flag.
  std::vector<double> stockham_twiddles_;
  std::vector<std::size_t> stockham_offsets_;
};

/// Shared immutable plan from the process-wide cache. The returned
/// reference lives for the whole process; lookups are lock-free after the
/// first request for a given (size, direction).
const fft_plan& get_fft_plan(std::size_t n, fft_direction direction);

namespace detail {

// Seed-recurrence twiddle tables and radix-2 kernel. These live in fft.cpp
// (compiled without any per-file optimization overrides) so the compat path
// stays bit-identical to the seed implementation even when the Stockham
// kernels are built with SIMD/contraction flags.
void build_compat_twiddles(std::size_t n, bool inverse, cvec& twiddles,
                           std::vector<std::size_t>& offsets);
void run_compat_radix2(std::span<cplx> data,
                       std::span<const std::uint32_t> swap_pairs,
                       const cvec& twiddles,
                       const std::vector<std::size_t>& offsets);

}  // namespace detail

}  // namespace backfi::dsp
