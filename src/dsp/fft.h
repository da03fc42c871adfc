// Iterative FFT/IFFT for power-of-two sizes.
//
// The WiFi PHY only needs 64-point transforms, but the kernel is generic
// over any power of two so spectral tests can use longer transforms.
// Transforms run through a cached execution plan: a tabled radix-2 kernel
// whose twiddles are built with the original per-butterfly recurrence, so
// its output is bit-identical to the original (pre-plan) implementation at
// every size. That implementation is kept as fft_in_place_reference for
// the equivalence tests and perf baselines.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace backfi::dsp {

/// True if n is a power of two (and nonzero).
bool is_power_of_two(std::size_t n);

/// The original per-call twiddle-recurrence forward transform (no
/// normalization), kept verbatim as the baseline for perf_kernels and for
/// the plan equivalence tests. Not used by the signal chain. Throws
/// std::invalid_argument unless data.size() is a power of two in
/// [1, 2^40], as the plans do.
void fft_in_place_reference(std::span<cplx> data);

enum class fft_direction { forward, inverse };

/// Precomputed transform for one (size, direction): the swap pairs of the
/// bit-reversal permutation plus per-stage twiddle tables, so repeated
/// transforms never re-derive twiddle factors. Immutable after
/// construction and shared process-wide through get_fft_plan, so it is
/// safe to execute from the sim::sweep_for worker threads.
class fft_plan {
 public:
  /// Build a plan for one size and direction. Throws std::invalid_argument
  /// unless n is a power of two in [1, 2^40].
  fft_plan(std::size_t n, fft_direction direction);

  std::size_t size() const { return n_; }
  fft_direction direction() const { return direction_; }

  /// Execute the transform in place. No normalization in either direction
  /// (callers scale the inverse by 1/N, as the seed implementation did).
  /// Throws std::invalid_argument unless data.size() == size().
  void execute(std::span<cplx> data) const;

  /// The plan's tables, for kernels that run its exact butterflies on
  /// another data layout (wifi/ofdm_kernels: four symbols per vector):
  /// the bit-reversal swap pairs as flattened (i, j) index pairs, and the
  /// twiddles, stage s (butterfly span 2^(s+1)) starting at
  /// stage_offsets()[s].
  std::span<const std::size_t> swap_pairs() const { return swap_pairs_; }
  std::span<const cplx> twiddles() const { return twiddles_; }
  std::span<const std::size_t> stage_offsets() const { return offsets_; }

 private:
  std::size_t n_;
  fft_direction direction_;
  std::vector<std::size_t> swap_pairs_;
  cvec twiddles_;
  std::vector<std::size_t> offsets_;  // first twiddle of each stage
};

/// Shared immutable plan from the process-wide cache. The returned
/// reference lives for the whole process; lookups are lock-free after the
/// first request for a given (size, direction). Throws
/// std::invalid_argument unless n is a power of two in [1, 2^40].
const fft_plan& get_fft_plan(std::size_t n, fft_direction direction);

}  // namespace backfi::dsp
