// The SIMD kernel TUs (Viterbi ACS, constellation slice, pre-decode finite
// scan, noise synthesis, the block sin/cos and log, the canceller
// convolutions, the least-squares normal equations, the ADC quantizer and
// the hardened receive chain) get -mavx2 from per-source COMPILE_OPTIONS. A
// build change that drops those flags loses the vector paths without
// changing a single output bit, so no value test notices; this one pins
// each TU's __AVX2__ to the CMake host probe.
#include <gtest/gtest.h>

#include "dsp/fir_kernels.h"
#include "dsp/libm_kernels.h"
#include "dsp/linalg_kernels.h"
#include "dsp/rng.h"
#include "fd/adc.h"
#include "fd/chain_kernels.h"
#include "phy/demod_kernels.h"
#include "phy/viterbi_kernels.h"
#include "reader/decoder_kernels.h"

namespace backfi {
namespace {

TEST(KernelBuildTest, SimdTusMatchHostProbe) {
#if defined(BACKFI_DEBUG_BUILD)
  GTEST_SKIP() << "Debug builds compile the kernel TUs with default flags";
#endif
  const bool probe = BACKFI_HOST_HAS_AVX2 != 0;
  EXPECT_EQ(phy::detail::viterbi_kernels_avx2(), probe);
  EXPECT_EQ(phy::detail::demod_kernels_avx2(), probe);
  EXPECT_EQ(reader::detail::decoder_kernels_avx2(), probe);
  EXPECT_EQ(dsp::detail::rng_kernels_avx2(), probe);
  EXPECT_EQ(dsp::detail::libm_kernels_avx2(), probe);
  EXPECT_EQ(dsp::detail::fir_kernels_avx2(), probe);
  EXPECT_EQ(dsp::detail::linalg_kernels_avx2(), probe);
  EXPECT_EQ(fd::detail::adc_avx2(), probe);
  EXPECT_EQ(fd::detail::chain_kernels_avx2(), probe);
}

}  // namespace
}  // namespace backfi
