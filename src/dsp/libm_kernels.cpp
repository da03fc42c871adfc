// AVX2 sin/cos and log with glibc's exact bits (see libm_kernels.h).
//
// This TU is the one kernel unit built with -mfma (src/dsp/CMakeLists.txt),
// still with contraction off: the compiler fuses nothing, and every fused
// multiply-add below is an explicit intrinsic. They serve two purposes:
// error-free products (fmsub(a, b, a*b) is the exact rounding error of
// a*b, and the reductions z*invc - 1 and x - k*P1 are exact) and the
// polynomial and correction sums, whose rounding the error budget in
// DESIGN.md §9 counts. Nothing here can change an output bit: a lane's
// own rounding is kept only when it is provably glibc's (certify), and
// every other lane is recomputed by the libm call.
//
// Equivalence with libm is pinned by tests/dsp/libm_kernels_test.cpp
// (tier-1, 10^6 draws plus crafted edges) and tests/long/
// libm_equivalence_test.cpp (10^8 draws per kernel, ctest -L long).
#include "dsp/libm_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "dsp/math_util.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define BACKFI_LIBM_KERNELS_SIMD 1
#endif

namespace backfi::dsp {

namespace detail {

// Generated with libquadmath: sinq/cosq of (j mod 64)*pi/128 placed by
// quadrant, and -logq(invc); each split into the nearest double and the
// nearest double to the rest. LibmKernelsTest.TablesMatchLibquadmath
// regenerates both tables and prints them in this form on a mismatch.
alignas(32) const std::array<std::array<double, 4>, 256> sincos_table = {{
    {0x0p+0, 0x1p+0, 0x0p+0, 0x0p+0},
    {0x1.92155f7a3667ep-6, 0x1.ffd886084cd0dp-1, -0x1.b1d63091a013p-64, -0x1.1354d4556e4cbp-55},
    {0x1.91f65f10dd814p-5, 0x1.ff621e3796d7ep-1, -0x1.912bd0d569a9p-61, -0x1.c57bc2e24aa15p-57},
    {0x1.2d52092ce19f6p-4, 0x1.fe9cdad01883ap-1, -0x1.9a088a8bf6b2cp-59, 0x1.521ecd0c67e35p-57},
    {0x1.917a6bc29b42cp-4, 0x1.fd88da3d12526p-1, -0x1.e2718d26ed688p-60, -0x1.87df6378811c7p-55},
    {0x1.f564e56a9730ep-4, 0x1.fc26470e19fd3p-1, 0x1.a2704729ae56dp-59, 0x1.1ec8668ecaceep-55},
    {0x1.2c8106e8e613ap-3, 0x1.fa7557f08a517p-1, 0x1.13000a89a11ep-58, -0x1.7a0a8ca13571fp-55},
    {0x1.5e214448b3fc6p-3, 0x1.f8764fa714ba9p-1, 0x1.531ff779ddac6p-57, 0x1.ab256778ffcb6p-56},
    {0x1.8f8b83c69a60bp-3, 0x1.f6297cff75cbp-1, -0x1.26d19b9ff8d82p-57, 0x1.562172a361fd3p-56},
    {0x1.c0b826a7e4f63p-3, 0x1.f38f3ac64e589p-1, -0x1.af1439e521936p-62, -0x1.d7bafb51f72e6p-56},
    {0x1.f19f97b215f1bp-3, 0x1.f0a7efb9230d7p-1, -0x1.42deef11da2c4p-57, 0x1.52c7adc6b4989p-56},
    {0x1.111d262b1f677p-2, 0x1.ed740e7684963p-1, 0x1.824c20ab7aa9ap-56, 0x1.e82c791f59cc2p-56},
    {0x1.294062ed59f06p-2, 0x1.e9f4156c62ddap-1, -0x1.5d28da2c4612dp-56, 0x1.760b1e2e3f81ep-55},
    {0x1.4135c94176601p-2, 0x1.e6288ec48e112p-1, 0x1.0c97c4afa2518p-56, -0x1.16b56f2847754p-57},
    {0x1.58f9a75ab1fddp-2, 0x1.e212104f686e5p-1, -0x1.efdc0d58cf62p-62, -0x1.014c76c126527p-55},
    {0x1.7088530fa459fp-2, 0x1.ddb13b6ccc23cp-1, -0x1.44b19e0864c5dp-56, 0x1.83c37c6107db3p-55},
    {0x1.87de2a6aea963p-2, 0x1.d906bcf328d46p-1, -0x1.72cedd3d5a61p-57, 0x1.457e610231ac2p-56},
    {0x1.9ef7943a8ed8ap-2, 0x1.d4134d14dc93ap-1, 0x1.6da81290bdbabp-57, -0x1.4ef5295d25af2p-55},
    {0x1.b5d1009e15ccp-2, 0x1.ced7af43cc773p-1, 0x1.5b362cb974183p-57, -0x1.e7b6bb5ab58aep-58},
    {0x1.cc66e9931c45ep-2, 0x1.c954b213411f5p-1, 0x1.6850e59c37f8fp-58, -0x1.2fb761e946603p-58},
    {0x1.e2b5d3806f63bp-2, 0x1.c38b2f180bdb1p-1, 0x1.e0d891d3c6841p-58, -0x1.6e0b1757c8d07p-56},
    {0x1.f8ba4dbf89abap-2, 0x1.bd7c0ac6f952ap-1, -0x1.2ec1fc1b776b8p-60, -0x1.825a732ac700ap-55},
    {0x1.073879922ffeep-1, 0x1.b728345196e3ep-1, -0x1.a5a014347406cp-55, -0x1.bc69f324e6d61p-55},
    {0x1.11eb3541b4b23p-1, 0x1.b090a581502p-1, -0x1.ef23b69abe4f1p-55, -0x1.926da300ffccep-55},
    {0x1.1c73b39ae68c8p-1, 0x1.a9b66290ea1a3p-1, 0x1.b25dd267f66p-55, 0x1.9f630e8b6dac8p-60},
    {0x1.26d054cdd12dfp-1, 0x1.a29a7a0462782p-1, -0x1.5da743ef3770cp-55, -0x1.128bb015df175p-56},
    {0x1.30ff7fce17035p-1, 0x1.9b3e047f38741p-1, -0x1.efcc626f74a6fp-57, -0x1.30ee286712474p-55},
    {0x1.3affa292050b9p-1, 0x1.93a22499263fbp-1, 0x1.e3e25e3954964p-56, 0x1.3d419a920df0bp-55},
    {0x1.44cf325091dd6p-1, 0x1.8bc806b151741p-1, 0x1.8076a2cfdc6b3p-57, -0x1.2c5e12ed1336dp-55},
    {0x1.4e6cabbe3e5e9p-1, 0x1.83b0e0bff976ep-1, 0x1.3c293edceb327p-57, -0x1.6f420f8ea3475p-56},
    {0x1.57d69348cecap-1, 0x1.7b5df226aafafp-1, -0x1.75720992bfbb2p-55, -0x1.0f537acdf0ad7p-56},
    {0x1.610b7551d2cdfp-1, 0x1.72d0837efff96p-1, -0x1.251b352ff2a37p-56, 0x1.0d4ef0f1d915cp-55},
    {0x1.6a09e667f3bcdp-1, 0x1.6a09e667f3bcdp-1, -0x1.bdd3413b26456p-55, -0x1.bdd3413b26456p-55},
    {0x1.72d0837efff96p-1, 0x1.610b7551d2cdfp-1, 0x1.0d4ef0f1d915cp-55, -0x1.251b352ff2a37p-56},
    {0x1.7b5df226aafafp-1, 0x1.57d69348cecap-1, -0x1.0f537acdf0ad7p-56, -0x1.75720992bfbb2p-55},
    {0x1.83b0e0bff976ep-1, 0x1.4e6cabbe3e5e9p-1, -0x1.6f420f8ea3475p-56, 0x1.3c293edceb327p-57},
    {0x1.8bc806b151741p-1, 0x1.44cf325091dd6p-1, -0x1.2c5e12ed1336dp-55, 0x1.8076a2cfdc6b3p-57},
    {0x1.93a22499263fbp-1, 0x1.3affa292050b9p-1, 0x1.3d419a920df0bp-55, 0x1.e3e25e3954964p-56},
    {0x1.9b3e047f38741p-1, 0x1.30ff7fce17035p-1, -0x1.30ee286712474p-55, -0x1.efcc626f74a6fp-57},
    {0x1.a29a7a0462782p-1, 0x1.26d054cdd12dfp-1, -0x1.128bb015df175p-56, -0x1.5da743ef3770cp-55},
    {0x1.a9b66290ea1a3p-1, 0x1.1c73b39ae68c8p-1, 0x1.9f630e8b6dac8p-60, 0x1.b25dd267f66p-55},
    {0x1.b090a581502p-1, 0x1.11eb3541b4b23p-1, -0x1.926da300ffccep-55, -0x1.ef23b69abe4f1p-55},
    {0x1.b728345196e3ep-1, 0x1.073879922ffeep-1, -0x1.bc69f324e6d61p-55, -0x1.a5a014347406cp-55},
    {0x1.bd7c0ac6f952ap-1, 0x1.f8ba4dbf89abap-2, -0x1.825a732ac700ap-55, -0x1.2ec1fc1b776b8p-60},
    {0x1.c38b2f180bdb1p-1, 0x1.e2b5d3806f63bp-2, -0x1.6e0b1757c8d07p-56, 0x1.e0d891d3c6842p-58},
    {0x1.c954b213411f5p-1, 0x1.cc66e9931c45ep-2, -0x1.2fb761e946603p-58, 0x1.6850e59c37f9p-58},
    {0x1.ced7af43cc773p-1, 0x1.b5d1009e15ccp-2, -0x1.e7b6bb5ab58aep-58, 0x1.5b362cb974183p-57},
    {0x1.d4134d14dc93ap-1, 0x1.9ef7943a8ed8ap-2, -0x1.4ef5295d25af2p-55, 0x1.6da81290bdbabp-57},
    {0x1.d906bcf328d46p-1, 0x1.87de2a6aea963p-2, 0x1.457e610231ac2p-56, -0x1.72cedd3d5a61p-57},
    {0x1.ddb13b6ccc23cp-1, 0x1.7088530fa459fp-2, 0x1.83c37c6107db3p-55, -0x1.44b19e0864c5dp-56},
    {0x1.e212104f686e5p-1, 0x1.58f9a75ab1fddp-2, -0x1.014c76c126527p-55, -0x1.efdc0d58cf62p-62},
    {0x1.e6288ec48e112p-1, 0x1.4135c94176601p-2, -0x1.16b56f2847754p-57, 0x1.0c97c4afa2518p-56},
    {0x1.e9f4156c62ddap-1, 0x1.294062ed59f06p-2, 0x1.760b1e2e3f81ep-55, -0x1.5d28da2c4612dp-56},
    {0x1.ed740e7684963p-1, 0x1.111d262b1f677p-2, 0x1.e82c791f59cc2p-56, 0x1.824c20ab7aa9ap-56},
    {0x1.f0a7efb9230d7p-1, 0x1.f19f97b215f1bp-3, 0x1.52c7adc6b4989p-56, -0x1.42deef11da2c4p-57},
    {0x1.f38f3ac64e589p-1, 0x1.c0b826a7e4f63p-3, -0x1.d7bafb51f72e6p-56, -0x1.af1439e521934p-62},
    {0x1.f6297cff75cbp-1, 0x1.8f8b83c69a60bp-3, 0x1.562172a361fd3p-56, -0x1.26d19b9ff8d82p-57},
    {0x1.f8764fa714ba9p-1, 0x1.5e214448b3fc6p-3, 0x1.ab256778ffcb6p-56, 0x1.531ff779ddac6p-57},
    {0x1.fa7557f08a517p-1, 0x1.2c8106e8e613ap-3, -0x1.7a0a8ca13571fp-55, 0x1.13000a89a11ep-58},
    {0x1.fc26470e19fd3p-1, 0x1.f564e56a9730ep-4, 0x1.1ec8668ecaceep-55, 0x1.a2704729ae56dp-59},
    {0x1.fd88da3d12526p-1, 0x1.917a6bc29b42cp-4, -0x1.87df6378811c7p-55, -0x1.e2718d26ed687p-60},
    {0x1.fe9cdad01883ap-1, 0x1.2d52092ce19f6p-4, 0x1.521ecd0c67e35p-57, -0x1.9a088a8bf6b2cp-59},
    {0x1.ff621e3796d7ep-1, 0x1.91f65f10dd814p-5, -0x1.c57bc2e24aa15p-57, -0x1.912bd0d569a9p-61},
    {0x1.ffd886084cd0dp-1, 0x1.92155f7a3667ep-6, -0x1.1354d4556e4cbp-55, -0x1.b1d63091a012ap-64},
    {0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0},
    {0x1.ffd886084cd0dp-1, -0x1.92155f7a3667ep-6, -0x1.1354d4556e4cbp-55, 0x1.b1d63091a013p-64},
    {0x1.ff621e3796d7ep-1, -0x1.91f65f10dd814p-5, -0x1.c57bc2e24aa15p-57, 0x1.912bd0d569a9p-61},
    {0x1.fe9cdad01883ap-1, -0x1.2d52092ce19f6p-4, 0x1.521ecd0c67e35p-57, 0x1.9a088a8bf6b2cp-59},
    {0x1.fd88da3d12526p-1, -0x1.917a6bc29b42cp-4, -0x1.87df6378811c7p-55, 0x1.e2718d26ed688p-60},
    {0x1.fc26470e19fd3p-1, -0x1.f564e56a9730ep-4, 0x1.1ec8668ecaceep-55, -0x1.a2704729ae56dp-59},
    {0x1.fa7557f08a517p-1, -0x1.2c8106e8e613ap-3, -0x1.7a0a8ca13571fp-55, -0x1.13000a89a11ep-58},
    {0x1.f8764fa714ba9p-1, -0x1.5e214448b3fc6p-3, 0x1.ab256778ffcb6p-56, -0x1.531ff779ddac6p-57},
    {0x1.f6297cff75cbp-1, -0x1.8f8b83c69a60bp-3, 0x1.562172a361fd3p-56, 0x1.26d19b9ff8d82p-57},
    {0x1.f38f3ac64e589p-1, -0x1.c0b826a7e4f63p-3, -0x1.d7bafb51f72e6p-56, 0x1.af1439e521936p-62},
    {0x1.f0a7efb9230d7p-1, -0x1.f19f97b215f1bp-3, 0x1.52c7adc6b4989p-56, 0x1.42deef11da2c4p-57},
    {0x1.ed740e7684963p-1, -0x1.111d262b1f677p-2, 0x1.e82c791f59cc2p-56, -0x1.824c20ab7aa9ap-56},
    {0x1.e9f4156c62ddap-1, -0x1.294062ed59f06p-2, 0x1.760b1e2e3f81ep-55, 0x1.5d28da2c4612dp-56},
    {0x1.e6288ec48e112p-1, -0x1.4135c94176601p-2, -0x1.16b56f2847754p-57, -0x1.0c97c4afa2518p-56},
    {0x1.e212104f686e5p-1, -0x1.58f9a75ab1fddp-2, -0x1.014c76c126527p-55, 0x1.efdc0d58cf62p-62},
    {0x1.ddb13b6ccc23cp-1, -0x1.7088530fa459fp-2, 0x1.83c37c6107db3p-55, 0x1.44b19e0864c5dp-56},
    {0x1.d906bcf328d46p-1, -0x1.87de2a6aea963p-2, 0x1.457e610231ac2p-56, 0x1.72cedd3d5a61p-57},
    {0x1.d4134d14dc93ap-1, -0x1.9ef7943a8ed8ap-2, -0x1.4ef5295d25af2p-55, -0x1.6da81290bdbabp-57},
    {0x1.ced7af43cc773p-1, -0x1.b5d1009e15ccp-2, -0x1.e7b6bb5ab58aep-58, -0x1.5b362cb974183p-57},
    {0x1.c954b213411f5p-1, -0x1.cc66e9931c45ep-2, -0x1.2fb761e946603p-58, -0x1.6850e59c37f8fp-58},
    {0x1.c38b2f180bdb1p-1, -0x1.e2b5d3806f63bp-2, -0x1.6e0b1757c8d07p-56, -0x1.e0d891d3c6841p-58},
    {0x1.bd7c0ac6f952ap-1, -0x1.f8ba4dbf89abap-2, -0x1.825a732ac700ap-55, 0x1.2ec1fc1b776b8p-60},
    {0x1.b728345196e3ep-1, -0x1.073879922ffeep-1, -0x1.bc69f324e6d61p-55, 0x1.a5a014347406cp-55},
    {0x1.b090a581502p-1, -0x1.11eb3541b4b23p-1, -0x1.926da300ffccep-55, 0x1.ef23b69abe4f1p-55},
    {0x1.a9b66290ea1a3p-1, -0x1.1c73b39ae68c8p-1, 0x1.9f630e8b6dac8p-60, -0x1.b25dd267f66p-55},
    {0x1.a29a7a0462782p-1, -0x1.26d054cdd12dfp-1, -0x1.128bb015df175p-56, 0x1.5da743ef3770cp-55},
    {0x1.9b3e047f38741p-1, -0x1.30ff7fce17035p-1, -0x1.30ee286712474p-55, 0x1.efcc626f74a6fp-57},
    {0x1.93a22499263fbp-1, -0x1.3affa292050b9p-1, 0x1.3d419a920df0bp-55, -0x1.e3e25e3954964p-56},
    {0x1.8bc806b151741p-1, -0x1.44cf325091dd6p-1, -0x1.2c5e12ed1336dp-55, -0x1.8076a2cfdc6b3p-57},
    {0x1.83b0e0bff976ep-1, -0x1.4e6cabbe3e5e9p-1, -0x1.6f420f8ea3475p-56, -0x1.3c293edceb327p-57},
    {0x1.7b5df226aafafp-1, -0x1.57d69348cecap-1, -0x1.0f537acdf0ad7p-56, 0x1.75720992bfbb2p-55},
    {0x1.72d0837efff96p-1, -0x1.610b7551d2cdfp-1, 0x1.0d4ef0f1d915cp-55, 0x1.251b352ff2a37p-56},
    {0x1.6a09e667f3bcdp-1, -0x1.6a09e667f3bcdp-1, -0x1.bdd3413b26456p-55, 0x1.bdd3413b26456p-55},
    {0x1.610b7551d2cdfp-1, -0x1.72d0837efff96p-1, -0x1.251b352ff2a37p-56, -0x1.0d4ef0f1d915cp-55},
    {0x1.57d69348cecap-1, -0x1.7b5df226aafafp-1, -0x1.75720992bfbb2p-55, 0x1.0f537acdf0ad7p-56},
    {0x1.4e6cabbe3e5e9p-1, -0x1.83b0e0bff976ep-1, 0x1.3c293edceb327p-57, 0x1.6f420f8ea3475p-56},
    {0x1.44cf325091dd6p-1, -0x1.8bc806b151741p-1, 0x1.8076a2cfdc6b3p-57, 0x1.2c5e12ed1336dp-55},
    {0x1.3affa292050b9p-1, -0x1.93a22499263fbp-1, 0x1.e3e25e3954964p-56, -0x1.3d419a920df0bp-55},
    {0x1.30ff7fce17035p-1, -0x1.9b3e047f38741p-1, -0x1.efcc626f74a6fp-57, 0x1.30ee286712474p-55},
    {0x1.26d054cdd12dfp-1, -0x1.a29a7a0462782p-1, -0x1.5da743ef3770cp-55, 0x1.128bb015df175p-56},
    {0x1.1c73b39ae68c8p-1, -0x1.a9b66290ea1a3p-1, 0x1.b25dd267f66p-55, -0x1.9f630e8b6dac8p-60},
    {0x1.11eb3541b4b23p-1, -0x1.b090a581502p-1, -0x1.ef23b69abe4f1p-55, 0x1.926da300ffccep-55},
    {0x1.073879922ffeep-1, -0x1.b728345196e3ep-1, -0x1.a5a014347406cp-55, 0x1.bc69f324e6d61p-55},
    {0x1.f8ba4dbf89abap-2, -0x1.bd7c0ac6f952ap-1, -0x1.2ec1fc1b776b8p-60, 0x1.825a732ac700ap-55},
    {0x1.e2b5d3806f63bp-2, -0x1.c38b2f180bdb1p-1, 0x1.e0d891d3c6842p-58, 0x1.6e0b1757c8d07p-56},
    {0x1.cc66e9931c45ep-2, -0x1.c954b213411f5p-1, 0x1.6850e59c37f9p-58, 0x1.2fb761e946603p-58},
    {0x1.b5d1009e15ccp-2, -0x1.ced7af43cc773p-1, 0x1.5b362cb974183p-57, 0x1.e7b6bb5ab58aep-58},
    {0x1.9ef7943a8ed8ap-2, -0x1.d4134d14dc93ap-1, 0x1.6da81290bdbabp-57, 0x1.4ef5295d25af2p-55},
    {0x1.87de2a6aea963p-2, -0x1.d906bcf328d46p-1, -0x1.72cedd3d5a61p-57, -0x1.457e610231ac2p-56},
    {0x1.7088530fa459fp-2, -0x1.ddb13b6ccc23cp-1, -0x1.44b19e0864c5dp-56, -0x1.83c37c6107db3p-55},
    {0x1.58f9a75ab1fddp-2, -0x1.e212104f686e5p-1, -0x1.efdc0d58cf62p-62, 0x1.014c76c126527p-55},
    {0x1.4135c94176601p-2, -0x1.e6288ec48e112p-1, 0x1.0c97c4afa2518p-56, 0x1.16b56f2847754p-57},
    {0x1.294062ed59f06p-2, -0x1.e9f4156c62ddap-1, -0x1.5d28da2c4612dp-56, -0x1.760b1e2e3f81ep-55},
    {0x1.111d262b1f677p-2, -0x1.ed740e7684963p-1, 0x1.824c20ab7aa9ap-56, -0x1.e82c791f59cc2p-56},
    {0x1.f19f97b215f1bp-3, -0x1.f0a7efb9230d7p-1, -0x1.42deef11da2c4p-57, -0x1.52c7adc6b4989p-56},
    {0x1.c0b826a7e4f63p-3, -0x1.f38f3ac64e589p-1, -0x1.af1439e521934p-62, 0x1.d7bafb51f72e6p-56},
    {0x1.8f8b83c69a60bp-3, -0x1.f6297cff75cbp-1, -0x1.26d19b9ff8d82p-57, -0x1.562172a361fd3p-56},
    {0x1.5e214448b3fc6p-3, -0x1.f8764fa714ba9p-1, 0x1.531ff779ddac6p-57, -0x1.ab256778ffcb6p-56},
    {0x1.2c8106e8e613ap-3, -0x1.fa7557f08a517p-1, 0x1.13000a89a11ep-58, 0x1.7a0a8ca13571fp-55},
    {0x1.f564e56a9730ep-4, -0x1.fc26470e19fd3p-1, 0x1.a2704729ae56dp-59, -0x1.1ec8668ecaceep-55},
    {0x1.917a6bc29b42cp-4, -0x1.fd88da3d12526p-1, -0x1.e2718d26ed687p-60, 0x1.87df6378811c7p-55},
    {0x1.2d52092ce19f6p-4, -0x1.fe9cdad01883ap-1, -0x1.9a088a8bf6b2cp-59, -0x1.521ecd0c67e35p-57},
    {0x1.91f65f10dd814p-5, -0x1.ff621e3796d7ep-1, -0x1.912bd0d569a9p-61, 0x1.c57bc2e24aa15p-57},
    {0x1.92155f7a3667ep-6, -0x1.ffd886084cd0dp-1, -0x1.b1d63091a012ap-64, 0x1.1354d4556e4cbp-55},
    {0x0p+0, -0x1p+0, 0x0p+0, 0x0p+0},
    {-0x1.92155f7a3667ep-6, -0x1.ffd886084cd0dp-1, 0x1.b1d63091a013p-64, 0x1.1354d4556e4cbp-55},
    {-0x1.91f65f10dd814p-5, -0x1.ff621e3796d7ep-1, 0x1.912bd0d569a9p-61, 0x1.c57bc2e24aa15p-57},
    {-0x1.2d52092ce19f6p-4, -0x1.fe9cdad01883ap-1, 0x1.9a088a8bf6b2cp-59, -0x1.521ecd0c67e35p-57},
    {-0x1.917a6bc29b42cp-4, -0x1.fd88da3d12526p-1, 0x1.e2718d26ed688p-60, 0x1.87df6378811c7p-55},
    {-0x1.f564e56a9730ep-4, -0x1.fc26470e19fd3p-1, -0x1.a2704729ae56dp-59, -0x1.1ec8668ecaceep-55},
    {-0x1.2c8106e8e613ap-3, -0x1.fa7557f08a517p-1, -0x1.13000a89a11ep-58, 0x1.7a0a8ca13571fp-55},
    {-0x1.5e214448b3fc6p-3, -0x1.f8764fa714ba9p-1, -0x1.531ff779ddac6p-57, -0x1.ab256778ffcb6p-56},
    {-0x1.8f8b83c69a60bp-3, -0x1.f6297cff75cbp-1, 0x1.26d19b9ff8d82p-57, -0x1.562172a361fd3p-56},
    {-0x1.c0b826a7e4f63p-3, -0x1.f38f3ac64e589p-1, 0x1.af1439e521936p-62, 0x1.d7bafb51f72e6p-56},
    {-0x1.f19f97b215f1bp-3, -0x1.f0a7efb9230d7p-1, 0x1.42deef11da2c4p-57, -0x1.52c7adc6b4989p-56},
    {-0x1.111d262b1f677p-2, -0x1.ed740e7684963p-1, -0x1.824c20ab7aa9ap-56, -0x1.e82c791f59cc2p-56},
    {-0x1.294062ed59f06p-2, -0x1.e9f4156c62ddap-1, 0x1.5d28da2c4612dp-56, -0x1.760b1e2e3f81ep-55},
    {-0x1.4135c94176601p-2, -0x1.e6288ec48e112p-1, -0x1.0c97c4afa2518p-56, 0x1.16b56f2847754p-57},
    {-0x1.58f9a75ab1fddp-2, -0x1.e212104f686e5p-1, 0x1.efdc0d58cf62p-62, 0x1.014c76c126527p-55},
    {-0x1.7088530fa459fp-2, -0x1.ddb13b6ccc23cp-1, 0x1.44b19e0864c5dp-56, -0x1.83c37c6107db3p-55},
    {-0x1.87de2a6aea963p-2, -0x1.d906bcf328d46p-1, 0x1.72cedd3d5a61p-57, -0x1.457e610231ac2p-56},
    {-0x1.9ef7943a8ed8ap-2, -0x1.d4134d14dc93ap-1, -0x1.6da81290bdbabp-57, 0x1.4ef5295d25af2p-55},
    {-0x1.b5d1009e15ccp-2, -0x1.ced7af43cc773p-1, -0x1.5b362cb974183p-57, 0x1.e7b6bb5ab58aep-58},
    {-0x1.cc66e9931c45ep-2, -0x1.c954b213411f5p-1, -0x1.6850e59c37f8fp-58, 0x1.2fb761e946603p-58},
    {-0x1.e2b5d3806f63bp-2, -0x1.c38b2f180bdb1p-1, -0x1.e0d891d3c6841p-58, 0x1.6e0b1757c8d07p-56},
    {-0x1.f8ba4dbf89abap-2, -0x1.bd7c0ac6f952ap-1, 0x1.2ec1fc1b776b8p-60, 0x1.825a732ac700ap-55},
    {-0x1.073879922ffeep-1, -0x1.b728345196e3ep-1, 0x1.a5a014347406cp-55, 0x1.bc69f324e6d61p-55},
    {-0x1.11eb3541b4b23p-1, -0x1.b090a581502p-1, 0x1.ef23b69abe4f1p-55, 0x1.926da300ffccep-55},
    {-0x1.1c73b39ae68c8p-1, -0x1.a9b66290ea1a3p-1, -0x1.b25dd267f66p-55, -0x1.9f630e8b6dac8p-60},
    {-0x1.26d054cdd12dfp-1, -0x1.a29a7a0462782p-1, 0x1.5da743ef3770cp-55, 0x1.128bb015df175p-56},
    {-0x1.30ff7fce17035p-1, -0x1.9b3e047f38741p-1, 0x1.efcc626f74a6fp-57, 0x1.30ee286712474p-55},
    {-0x1.3affa292050b9p-1, -0x1.93a22499263fbp-1, -0x1.e3e25e3954964p-56, -0x1.3d419a920df0bp-55},
    {-0x1.44cf325091dd6p-1, -0x1.8bc806b151741p-1, -0x1.8076a2cfdc6b3p-57, 0x1.2c5e12ed1336dp-55},
    {-0x1.4e6cabbe3e5e9p-1, -0x1.83b0e0bff976ep-1, -0x1.3c293edceb327p-57, 0x1.6f420f8ea3475p-56},
    {-0x1.57d69348cecap-1, -0x1.7b5df226aafafp-1, 0x1.75720992bfbb2p-55, 0x1.0f537acdf0ad7p-56},
    {-0x1.610b7551d2cdfp-1, -0x1.72d0837efff96p-1, 0x1.251b352ff2a37p-56, -0x1.0d4ef0f1d915cp-55},
    {-0x1.6a09e667f3bcdp-1, -0x1.6a09e667f3bcdp-1, 0x1.bdd3413b26456p-55, 0x1.bdd3413b26456p-55},
    {-0x1.72d0837efff96p-1, -0x1.610b7551d2cdfp-1, -0x1.0d4ef0f1d915cp-55, 0x1.251b352ff2a37p-56},
    {-0x1.7b5df226aafafp-1, -0x1.57d69348cecap-1, 0x1.0f537acdf0ad7p-56, 0x1.75720992bfbb2p-55},
    {-0x1.83b0e0bff976ep-1, -0x1.4e6cabbe3e5e9p-1, 0x1.6f420f8ea3475p-56, -0x1.3c293edceb327p-57},
    {-0x1.8bc806b151741p-1, -0x1.44cf325091dd6p-1, 0x1.2c5e12ed1336dp-55, -0x1.8076a2cfdc6b3p-57},
    {-0x1.93a22499263fbp-1, -0x1.3affa292050b9p-1, -0x1.3d419a920df0bp-55, -0x1.e3e25e3954964p-56},
    {-0x1.9b3e047f38741p-1, -0x1.30ff7fce17035p-1, 0x1.30ee286712474p-55, 0x1.efcc626f74a6fp-57},
    {-0x1.a29a7a0462782p-1, -0x1.26d054cdd12dfp-1, 0x1.128bb015df175p-56, 0x1.5da743ef3770cp-55},
    {-0x1.a9b66290ea1a3p-1, -0x1.1c73b39ae68c8p-1, -0x1.9f630e8b6dac8p-60, -0x1.b25dd267f66p-55},
    {-0x1.b090a581502p-1, -0x1.11eb3541b4b23p-1, 0x1.926da300ffccep-55, 0x1.ef23b69abe4f1p-55},
    {-0x1.b728345196e3ep-1, -0x1.073879922ffeep-1, 0x1.bc69f324e6d61p-55, 0x1.a5a014347406cp-55},
    {-0x1.bd7c0ac6f952ap-1, -0x1.f8ba4dbf89abap-2, 0x1.825a732ac700ap-55, 0x1.2ec1fc1b776b8p-60},
    {-0x1.c38b2f180bdb1p-1, -0x1.e2b5d3806f63bp-2, 0x1.6e0b1757c8d07p-56, -0x1.e0d891d3c6842p-58},
    {-0x1.c954b213411f5p-1, -0x1.cc66e9931c45ep-2, 0x1.2fb761e946603p-58, -0x1.6850e59c37f9p-58},
    {-0x1.ced7af43cc773p-1, -0x1.b5d1009e15ccp-2, 0x1.e7b6bb5ab58aep-58, -0x1.5b362cb974183p-57},
    {-0x1.d4134d14dc93ap-1, -0x1.9ef7943a8ed8ap-2, 0x1.4ef5295d25af2p-55, -0x1.6da81290bdbabp-57},
    {-0x1.d906bcf328d46p-1, -0x1.87de2a6aea963p-2, -0x1.457e610231ac2p-56, 0x1.72cedd3d5a61p-57},
    {-0x1.ddb13b6ccc23cp-1, -0x1.7088530fa459fp-2, -0x1.83c37c6107db3p-55, 0x1.44b19e0864c5dp-56},
    {-0x1.e212104f686e5p-1, -0x1.58f9a75ab1fddp-2, 0x1.014c76c126527p-55, 0x1.efdc0d58cf62p-62},
    {-0x1.e6288ec48e112p-1, -0x1.4135c94176601p-2, 0x1.16b56f2847754p-57, -0x1.0c97c4afa2518p-56},
    {-0x1.e9f4156c62ddap-1, -0x1.294062ed59f06p-2, -0x1.760b1e2e3f81ep-55, 0x1.5d28da2c4612dp-56},
    {-0x1.ed740e7684963p-1, -0x1.111d262b1f677p-2, -0x1.e82c791f59cc2p-56, -0x1.824c20ab7aa9ap-56},
    {-0x1.f0a7efb9230d7p-1, -0x1.f19f97b215f1bp-3, -0x1.52c7adc6b4989p-56, 0x1.42deef11da2c4p-57},
    {-0x1.f38f3ac64e589p-1, -0x1.c0b826a7e4f63p-3, 0x1.d7bafb51f72e6p-56, 0x1.af1439e521934p-62},
    {-0x1.f6297cff75cbp-1, -0x1.8f8b83c69a60bp-3, -0x1.562172a361fd3p-56, 0x1.26d19b9ff8d82p-57},
    {-0x1.f8764fa714ba9p-1, -0x1.5e214448b3fc6p-3, -0x1.ab256778ffcb6p-56, -0x1.531ff779ddac6p-57},
    {-0x1.fa7557f08a517p-1, -0x1.2c8106e8e613ap-3, 0x1.7a0a8ca13571fp-55, -0x1.13000a89a11ep-58},
    {-0x1.fc26470e19fd3p-1, -0x1.f564e56a9730ep-4, -0x1.1ec8668ecaceep-55, -0x1.a2704729ae56dp-59},
    {-0x1.fd88da3d12526p-1, -0x1.917a6bc29b42cp-4, 0x1.87df6378811c7p-55, 0x1.e2718d26ed687p-60},
    {-0x1.fe9cdad01883ap-1, -0x1.2d52092ce19f6p-4, -0x1.521ecd0c67e35p-57, 0x1.9a088a8bf6b2cp-59},
    {-0x1.ff621e3796d7ep-1, -0x1.91f65f10dd814p-5, 0x1.c57bc2e24aa15p-57, 0x1.912bd0d569a9p-61},
    {-0x1.ffd886084cd0dp-1, -0x1.92155f7a3667ep-6, 0x1.1354d4556e4cbp-55, 0x1.b1d63091a012ap-64},
    {-0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0},
    {-0x1.ffd886084cd0dp-1, 0x1.92155f7a3667ep-6, 0x1.1354d4556e4cbp-55, -0x1.b1d63091a013p-64},
    {-0x1.ff621e3796d7ep-1, 0x1.91f65f10dd814p-5, 0x1.c57bc2e24aa15p-57, -0x1.912bd0d569a9p-61},
    {-0x1.fe9cdad01883ap-1, 0x1.2d52092ce19f6p-4, -0x1.521ecd0c67e35p-57, -0x1.9a088a8bf6b2cp-59},
    {-0x1.fd88da3d12526p-1, 0x1.917a6bc29b42cp-4, 0x1.87df6378811c7p-55, -0x1.e2718d26ed688p-60},
    {-0x1.fc26470e19fd3p-1, 0x1.f564e56a9730ep-4, -0x1.1ec8668ecaceep-55, 0x1.a2704729ae56dp-59},
    {-0x1.fa7557f08a517p-1, 0x1.2c8106e8e613ap-3, 0x1.7a0a8ca13571fp-55, 0x1.13000a89a11ep-58},
    {-0x1.f8764fa714ba9p-1, 0x1.5e214448b3fc6p-3, -0x1.ab256778ffcb6p-56, 0x1.531ff779ddac6p-57},
    {-0x1.f6297cff75cbp-1, 0x1.8f8b83c69a60bp-3, -0x1.562172a361fd3p-56, -0x1.26d19b9ff8d82p-57},
    {-0x1.f38f3ac64e589p-1, 0x1.c0b826a7e4f63p-3, 0x1.d7bafb51f72e6p-56, -0x1.af1439e521936p-62},
    {-0x1.f0a7efb9230d7p-1, 0x1.f19f97b215f1bp-3, -0x1.52c7adc6b4989p-56, -0x1.42deef11da2c4p-57},
    {-0x1.ed740e7684963p-1, 0x1.111d262b1f677p-2, -0x1.e82c791f59cc2p-56, 0x1.824c20ab7aa9ap-56},
    {-0x1.e9f4156c62ddap-1, 0x1.294062ed59f06p-2, -0x1.760b1e2e3f81ep-55, -0x1.5d28da2c4612dp-56},
    {-0x1.e6288ec48e112p-1, 0x1.4135c94176601p-2, 0x1.16b56f2847754p-57, 0x1.0c97c4afa2518p-56},
    {-0x1.e212104f686e5p-1, 0x1.58f9a75ab1fddp-2, 0x1.014c76c126527p-55, -0x1.efdc0d58cf62p-62},
    {-0x1.ddb13b6ccc23cp-1, 0x1.7088530fa459fp-2, -0x1.83c37c6107db3p-55, -0x1.44b19e0864c5dp-56},
    {-0x1.d906bcf328d46p-1, 0x1.87de2a6aea963p-2, -0x1.457e610231ac2p-56, -0x1.72cedd3d5a61p-57},
    {-0x1.d4134d14dc93ap-1, 0x1.9ef7943a8ed8ap-2, 0x1.4ef5295d25af2p-55, 0x1.6da81290bdbabp-57},
    {-0x1.ced7af43cc773p-1, 0x1.b5d1009e15ccp-2, 0x1.e7b6bb5ab58aep-58, 0x1.5b362cb974183p-57},
    {-0x1.c954b213411f5p-1, 0x1.cc66e9931c45ep-2, 0x1.2fb761e946603p-58, 0x1.6850e59c37f8fp-58},
    {-0x1.c38b2f180bdb1p-1, 0x1.e2b5d3806f63bp-2, 0x1.6e0b1757c8d07p-56, 0x1.e0d891d3c6841p-58},
    {-0x1.bd7c0ac6f952ap-1, 0x1.f8ba4dbf89abap-2, 0x1.825a732ac700ap-55, -0x1.2ec1fc1b776b8p-60},
    {-0x1.b728345196e3ep-1, 0x1.073879922ffeep-1, 0x1.bc69f324e6d61p-55, -0x1.a5a014347406cp-55},
    {-0x1.b090a581502p-1, 0x1.11eb3541b4b23p-1, 0x1.926da300ffccep-55, -0x1.ef23b69abe4f1p-55},
    {-0x1.a9b66290ea1a3p-1, 0x1.1c73b39ae68c8p-1, -0x1.9f630e8b6dac8p-60, 0x1.b25dd267f66p-55},
    {-0x1.a29a7a0462782p-1, 0x1.26d054cdd12dfp-1, 0x1.128bb015df175p-56, -0x1.5da743ef3770cp-55},
    {-0x1.9b3e047f38741p-1, 0x1.30ff7fce17035p-1, 0x1.30ee286712474p-55, -0x1.efcc626f74a6fp-57},
    {-0x1.93a22499263fbp-1, 0x1.3affa292050b9p-1, -0x1.3d419a920df0bp-55, 0x1.e3e25e3954964p-56},
    {-0x1.8bc806b151741p-1, 0x1.44cf325091dd6p-1, 0x1.2c5e12ed1336dp-55, 0x1.8076a2cfdc6b3p-57},
    {-0x1.83b0e0bff976ep-1, 0x1.4e6cabbe3e5e9p-1, 0x1.6f420f8ea3475p-56, 0x1.3c293edceb327p-57},
    {-0x1.7b5df226aafafp-1, 0x1.57d69348cecap-1, 0x1.0f537acdf0ad7p-56, -0x1.75720992bfbb2p-55},
    {-0x1.72d0837efff96p-1, 0x1.610b7551d2cdfp-1, -0x1.0d4ef0f1d915cp-55, -0x1.251b352ff2a37p-56},
    {-0x1.6a09e667f3bcdp-1, 0x1.6a09e667f3bcdp-1, 0x1.bdd3413b26456p-55, -0x1.bdd3413b26456p-55},
    {-0x1.610b7551d2cdfp-1, 0x1.72d0837efff96p-1, 0x1.251b352ff2a37p-56, 0x1.0d4ef0f1d915cp-55},
    {-0x1.57d69348cecap-1, 0x1.7b5df226aafafp-1, 0x1.75720992bfbb2p-55, -0x1.0f537acdf0ad7p-56},
    {-0x1.4e6cabbe3e5e9p-1, 0x1.83b0e0bff976ep-1, -0x1.3c293edceb327p-57, -0x1.6f420f8ea3475p-56},
    {-0x1.44cf325091dd6p-1, 0x1.8bc806b151741p-1, -0x1.8076a2cfdc6b3p-57, -0x1.2c5e12ed1336dp-55},
    {-0x1.3affa292050b9p-1, 0x1.93a22499263fbp-1, -0x1.e3e25e3954964p-56, 0x1.3d419a920df0bp-55},
    {-0x1.30ff7fce17035p-1, 0x1.9b3e047f38741p-1, 0x1.efcc626f74a6fp-57, -0x1.30ee286712474p-55},
    {-0x1.26d054cdd12dfp-1, 0x1.a29a7a0462782p-1, 0x1.5da743ef3770cp-55, -0x1.128bb015df175p-56},
    {-0x1.1c73b39ae68c8p-1, 0x1.a9b66290ea1a3p-1, -0x1.b25dd267f66p-55, 0x1.9f630e8b6dac8p-60},
    {-0x1.11eb3541b4b23p-1, 0x1.b090a581502p-1, 0x1.ef23b69abe4f1p-55, -0x1.926da300ffccep-55},
    {-0x1.073879922ffeep-1, 0x1.b728345196e3ep-1, 0x1.a5a014347406cp-55, -0x1.bc69f324e6d61p-55},
    {-0x1.f8ba4dbf89abap-2, 0x1.bd7c0ac6f952ap-1, 0x1.2ec1fc1b776b8p-60, -0x1.825a732ac700ap-55},
    {-0x1.e2b5d3806f63bp-2, 0x1.c38b2f180bdb1p-1, -0x1.e0d891d3c6842p-58, -0x1.6e0b1757c8d07p-56},
    {-0x1.cc66e9931c45ep-2, 0x1.c954b213411f5p-1, -0x1.6850e59c37f9p-58, -0x1.2fb761e946603p-58},
    {-0x1.b5d1009e15ccp-2, 0x1.ced7af43cc773p-1, -0x1.5b362cb974183p-57, -0x1.e7b6bb5ab58aep-58},
    {-0x1.9ef7943a8ed8ap-2, 0x1.d4134d14dc93ap-1, -0x1.6da81290bdbabp-57, -0x1.4ef5295d25af2p-55},
    {-0x1.87de2a6aea963p-2, 0x1.d906bcf328d46p-1, 0x1.72cedd3d5a61p-57, 0x1.457e610231ac2p-56},
    {-0x1.7088530fa459fp-2, 0x1.ddb13b6ccc23cp-1, 0x1.44b19e0864c5dp-56, 0x1.83c37c6107db3p-55},
    {-0x1.58f9a75ab1fddp-2, 0x1.e212104f686e5p-1, 0x1.efdc0d58cf62p-62, -0x1.014c76c126527p-55},
    {-0x1.4135c94176601p-2, 0x1.e6288ec48e112p-1, -0x1.0c97c4afa2518p-56, -0x1.16b56f2847754p-57},
    {-0x1.294062ed59f06p-2, 0x1.e9f4156c62ddap-1, 0x1.5d28da2c4612dp-56, 0x1.760b1e2e3f81ep-55},
    {-0x1.111d262b1f677p-2, 0x1.ed740e7684963p-1, -0x1.824c20ab7aa9ap-56, 0x1.e82c791f59cc2p-56},
    {-0x1.f19f97b215f1bp-3, 0x1.f0a7efb9230d7p-1, 0x1.42deef11da2c4p-57, 0x1.52c7adc6b4989p-56},
    {-0x1.c0b826a7e4f63p-3, 0x1.f38f3ac64e589p-1, 0x1.af1439e521934p-62, -0x1.d7bafb51f72e6p-56},
    {-0x1.8f8b83c69a60bp-3, 0x1.f6297cff75cbp-1, 0x1.26d19b9ff8d82p-57, 0x1.562172a361fd3p-56},
    {-0x1.5e214448b3fc6p-3, 0x1.f8764fa714ba9p-1, -0x1.531ff779ddac6p-57, 0x1.ab256778ffcb6p-56},
    {-0x1.2c8106e8e613ap-3, 0x1.fa7557f08a517p-1, -0x1.13000a89a11ep-58, -0x1.7a0a8ca13571fp-55},
    {-0x1.f564e56a9730ep-4, 0x1.fc26470e19fd3p-1, -0x1.a2704729ae56dp-59, 0x1.1ec8668ecaceep-55},
    {-0x1.917a6bc29b42cp-4, 0x1.fd88da3d12526p-1, 0x1.e2718d26ed687p-60, -0x1.87df6378811c7p-55},
    {-0x1.2d52092ce19f6p-4, 0x1.fe9cdad01883ap-1, 0x1.9a088a8bf6b2cp-59, 0x1.521ecd0c67e35p-57},
    {-0x1.91f65f10dd814p-5, 0x1.ff621e3796d7ep-1, 0x1.912bd0d569a9p-61, -0x1.c57bc2e24aa15p-57},
    {-0x1.92155f7a3667ep-6, 0x1.ffd886084cd0dp-1, 0x1.b1d63091a012ap-64, -0x1.1354d4556e4cbp-55},
}};

alignas(32) const std::array<std::array<double, 4>, 128> log_table = {{
    {0x1.74p+0, -0x1.7eaf83b82afc3p-2, -0x1.92ce979ed295p-56, 0.0},
    {0x1.72p+0, -0x1.792a55fdd47a2p-2, -0x1.f057691fe9ed6p-56, 0.0},
    {0x1.7p+0, -0x1.739d7f6bbd007p-2, 0x1.8c76ceb014b04p-56, 0.0},
    {0x1.6ep+0, -0x1.6e08eaa2ba1e4p-2, 0x1.cfb1b39ca3a0fp-56, 0.0},
    {0x1.6cp+0, -0x1.686c81e9b14afp-2, 0x1.ddea0f7f58e3dp-57, 0.0},
    {0x1.6ap+0, -0x1.62c82f2b9c795p-2, -0x1.7b7af915300e5p-57, 0.0},
    {0x1.68p+0, -0x1.5d1bdbf5809cap-2, -0x1.4236383dc7fe1p-56, 0.0},
    {0x1.66p+0, -0x1.5767717455a6cp-2, -0x1.526adb283660cp-56, 0.0},
    {0x1.64p+0, -0x1.51aad872df82dp-2, -0x1.3927ac19f55e3p-59, 0.0},
    {0x1.62p+0, -0x1.4be5f957778a1p-2, 0x1.259b35b04813dp-57, 0.0},
    {0x1.6p+0, -0x1.4618bc21c5ec2p-2, -0x1.f42decdeccf1dp-56, 0.0},
    {0x1.5ep+0, -0x1.404308686a7e4p-2, 0x1.0bcfb6082ce6dp-56, 0.0},
    {0x1.5cp+0, -0x1.3a64c556945eap-2, 0x1.c68651945f97cp-57, 0.0},
    {0x1.5ap+0, -0x1.347dd9a987d55p-2, 0x1.4dd4c580919f8p-57, 0.0},
    {0x1.58p+0, -0x1.2e8e2bae11d31p-2, 0x1.8f4cdb95ebdf9p-56, 0.0},
    {0x1.56p+0, -0x1.2895a13de86a3p-2, -0x1.7ad24c13f040ep-56, 0.0},
    {0x1.54p+0, -0x1.22941fbcf7966p-2, 0x1.76f5eb09628afp-56, 0.0},
    {0x1.52p+0, -0x1.1c898c16999fbp-2, 0x1.0e5c62aff1c44p-60, 0.0},
    {0x1.5p+0, -0x1.1675cababa60ep-2, -0x1.ce63eab883717p-61, 0.0},
    {0x1.5p+0, -0x1.1675cababa60ep-2, -0x1.ce63eab883717p-61, 0.0},
    {0x1.4ep+0, -0x1.1058bf9ae4ad5p-2, -0x1.89fa0ab4cb31dp-58, 0.0},
    {0x1.4cp+0, -0x1.0a324e27390e3p-2, -0x1.7dcfde8061c03p-56, 0.0},
    {0x1.4ap+0, -0x1.0402594b4d041p-2, 0x1.28ec217a5022dp-57, 0.0},
    {0x1.48p+0, -0x1.fb9186d5e3e2bp-3, 0x1.caaae64f21acbp-57, 0.0},
    {0x1.46p+0, -0x1.ef0adcbdc5936p-3, -0x1.48637950dc20dp-57, 0.0},
    {0x1.46p+0, -0x1.ef0adcbdc5936p-3, -0x1.48637950dc20dp-57, 0.0},
    {0x1.44p+0, -0x1.e27076e2af2e6p-3, 0x1.61578001e0162p-59, 0.0},
    {0x1.42p+0, -0x1.d5c216b4fbb91p-3, -0x1.6e443597e4d4p-57, 0.0},
    {0x1.4p+0, -0x1.c8ff7c79a9a22p-3, 0x1.4f689f8434012p-57, 0.0},
    {0x1.3ep+0, -0x1.bc286742d8cd6p-3, -0x1.4fce744870f55p-58, 0.0},
    {0x1.3ep+0, -0x1.bc286742d8cd6p-3, -0x1.4fce744870f55p-58, 0.0},
    {0x1.3cp+0, -0x1.af3c94e80bff3p-3, 0x1.398cff3641985p-58, 0.0},
    {0x1.3ap+0, -0x1.a23bc1fe2b563p-3, -0x1.93711b07a998cp-59, 0.0},
    {0x1.38p+0, -0x1.9525a9cf456b4p-3, -0x1.d904c1d4e2e26p-57, 0.0},
    {0x1.38p+0, -0x1.9525a9cf456b4p-3, -0x1.d904c1d4e2e26p-57, 0.0},
    {0x1.36p+0, -0x1.87fa06520c911p-3, 0x1.bf7fdbfa08d9ap-57, 0.0},
    {0x1.34p+0, -0x1.7ab890210d909p-3, -0x1.be36b2d6a0608p-59, 0.0},
    {0x1.32p+0, -0x1.6d60fe719d21dp-3, 0x1.caae268ecd179p-57, 0.0},
    {0x1.32p+0, -0x1.6d60fe719d21dp-3, 0x1.caae268ecd179p-57, 0.0},
    {0x1.3p+0, -0x1.5ff3070a793d4p-3, 0x1.bc60efafc6f6ep-58, 0.0},
    {0x1.2ep+0, -0x1.526e5e3a1b438p-3, 0x1.746ff8a470d3ap-57, 0.0},
    {0x1.2ep+0, -0x1.526e5e3a1b438p-3, 0x1.746ff8a470d3ap-57, 0.0},
    {0x1.2cp+0, -0x1.44d2b6ccb7d1ep-3, -0x1.9f4f6543e1f88p-57, 0.0},
    {0x1.2ap+0, -0x1.371fc201e8f74p-3, -0x1.de6cb62af18ap-58, 0.0},
    {0x1.2ap+0, -0x1.371fc201e8f74p-3, -0x1.de6cb62af18ap-58, 0.0},
    {0x1.28p+0, -0x1.29552f81ff523p-3, -0x1.301771c407dbfp-57, 0.0},
    {0x1.26p+0, -0x1.1b72ad52f67ap-3, -0x1.483023472cd74p-58, 0.0},
    {0x1.26p+0, -0x1.1b72ad52f67ap-3, -0x1.483023472cd74p-58, 0.0},
    {0x1.24p+0, -0x1.0d77e7cd08e59p-3, -0x1.9a5dc5e9030acp-57, 0.0},
    {0x1.22p+0, -0x1.fec9131dbeabbp-4, 0x1.5746b9981b36cp-58, 0.0},
    {0x1.22p+0, -0x1.fec9131dbeabbp-4, 0x1.5746b9981b36cp-58, 0.0},
    {0x1.2p+0, -0x1.e27076e2af2e6p-4, 0x1.61578001e0162p-60, 0.0},
    {0x1.1ep+0, -0x1.c5e548f5bc743p-4, -0x1.5d617ef8161b1p-60, 0.0},
    {0x1.1ep+0, -0x1.c5e548f5bc743p-4, -0x1.5d617ef8161b1p-60, 0.0},
    {0x1.1cp+0, -0x1.a926d3a4ad563p-4, -0x1.942f48aa70ea9p-58, 0.0},
    {0x1.1cp+0, -0x1.a926d3a4ad563p-4, -0x1.942f48aa70ea9p-58, 0.0},
    {0x1.1ap+0, -0x1.8c345d6319b21p-4, 0x1.4a697ab3424aap-61, 0.0},
    {0x1.18p+0, -0x1.6f0d28ae56b4cp-4, 0x1.906d99184b992p-58, 0.0},
    {0x1.18p+0, -0x1.6f0d28ae56b4cp-4, 0x1.906d99184b992p-58, 0.0},
    {0x1.16p+0, -0x1.51b073f06183fp-4, -0x1.a49e39a1a8be4p-58, 0.0},
    {0x1.16p+0, -0x1.51b073f06183fp-4, -0x1.a49e39a1a8be4p-58, 0.0},
    {0x1.14p+0, -0x1.341d7961bd1d1p-4, 0x1.b599f227becbbp-58, 0.0},
    {0x1.12p+0, -0x1.16536eea37ae1p-4, 0x1.79da3e8c22cdap-60, 0.0},
    {0x1.12p+0, -0x1.16536eea37ae1p-4, 0x1.79da3e8c22cdap-60, 0.0},
    {0x1.1p+0, -0x1.f0a30c01162a6p-5, -0x1.85f325c5bbacdp-59, 0.0},
    {0x1.1p+0, -0x1.f0a30c01162a6p-5, -0x1.85f325c5bbacdp-59, 0.0},
    {0x1.0ep+0, -0x1.b42dd711971bfp-5, 0x1.eb9759c130499p-60, 0.0},
    {0x1.0ep+0, -0x1.b42dd711971bfp-5, 0x1.eb9759c130499p-60, 0.0},
    {0x1.0cp+0, -0x1.77458f632dcfcp-5, -0x1.18d3ca87b9296p-59, 0.0},
    {0x1.0ap+0, -0x1.39e87b9febd6p-5, 0x1.5bfa937f551bbp-59, 0.0},
    {0x1.0ap+0, -0x1.39e87b9febd6p-5, 0x1.5bfa937f551bbp-59, 0.0},
    {0x1.08p+0, -0x1.f829b0e7833p-6, -0x1.33e3f04f1ef23p-60, 0.0},
    {0x1.08p+0, -0x1.f829b0e7833p-6, -0x1.33e3f04f1ef23p-60, 0.0},
    {0x1.06p+0, -0x1.7b91b07d5b11bp-6, 0x1.5b602ace3a51p-60, 0.0},
    {0x1.06p+0, -0x1.7b91b07d5b11bp-6, 0x1.5b602ace3a51p-60, 0.0},
    {0x1.04p+0, -0x1.fc0a8b0fc03e4p-7, 0x1.83092c59642a1p-62, 0.0},
    {0x1.04p+0, -0x1.fc0a8b0fc03e4p-7, 0x1.83092c59642a1p-62, 0.0},
    {0x1.02p+0, -0x1.fe02a6b106789p-8, 0x1.e44b7e3711ebep-67, 0.0},
    {0x1.02p+0, -0x1.fe02a6b106789p-8, 0x1.e44b7e3711ebep-67, 0.0},
    {0x1p+0, 0x0p+0, 0x0p+0, 0.0},
    {0x1p+0, 0x0p+0, 0x0p+0, 0.0},
    {0x1.fap-1, 0x1.82448a388a2aap-7, 0x1.04b16137f09ap-62, 0.0},
    {0x1.f6p-1, 0x1.432a925980cc1p-6, -0x1.8cdaf39004192p-60, 0.0},
    {0x1.f2p-1, 0x1.c63d2ec14aaf2p-6, -0x1.ce030a686bd86p-60, 0.0},
    {0x1.eep-1, 0x1.252f32f8d183fp-5, -0x1.947f792615916p-59, 0.0},
    {0x1.eap-1, 0x1.67c94f2d4bb58p-5, 0x1.0413e6505e603p-59, 0.0},
    {0x1.e8p-1, 0x1.894aa149fb343p-5, 0x1.a8be97660a23dp-60, 0.0},
    {0x1.e4p-1, 0x1.ccb73cdddb2ccp-5, -0x1.e48fb0500efd4p-59, 0.0},
    {0x1.ep-1, 0x1.08598b59e3a07p-4, -0x1.dd7009902bf32p-58, 0.0},
    {0x1.dcp-1, 0x1.2aa04a44717a5p-4, -0x1.d15d38d2fa3f7p-58, 0.0},
    {0x1.dap-1, 0x1.3bdf5a7d1ee64p-4, 0x1.7a976d3b5b45fp-59, 0.0},
    {0x1.d6p-1, 0x1.5e95a4d9791cbp-4, 0x1.f38745c5c450ap-58, 0.0},
    {0x1.d2p-1, 0x1.8197e2f40e3fp-4, 0x1.b9f2dffbeed43p-60, 0.0},
    {0x1.dp-1, 0x1.9335e5d594989p-4, -0x1.478a85704ccb7p-58, 0.0},
    {0x1.ccp-1, 0x1.b6ac88dad5b1cp-4, -0x1.0057eed1ca59fp-59, 0.0},
    {0x1.c8p-1, 0x1.da727638446a2p-4, 0x1.401fa71733019p-58, 0.0},
    {0x1.c6p-1, 0x1.ec739830a112p-4, -0x1.a2bf991780d3fp-59, 0.0},
    {0x1.c2p-1, 0x1.08598b59e3a07p-3, -0x1.dd7009902bf32p-57, 0.0},
    {0x1.cp-1, 0x1.1178e8227e47cp-3, -0x1.0e63a5f01c691p-58, 0.0},
    {0x1.bcp-1, 0x1.23d712a49c202p-3, -0x1.6e38161051d69p-57, 0.0},
    {0x1.bap-1, 0x1.2d1610c86813ap-3, -0x1.499a3f25af95fp-58, 0.0},
    {0x1.b6p-1, 0x1.3fb45a59928ccp-3, -0x1.d87e6a354d056p-57, 0.0},
    {0x1.b4p-1, 0x1.4913d8333b561p-3, -0x1.0d5604930f135p-58, 0.0},
    {0x1.bp-1, 0x1.5bf406b543db2p-3, -0x1.1f5b44c0df7e7p-61, 0.0},
    {0x1.aep-1, 0x1.6574ebe8c133ap-3, -0x1.d34f0f4621bedp-60, 0.0},
    {0x1.aap-1, 0x1.7898d85444c73p-3, 0x1.ef8f6ebcfb201p-58, 0.0},
    {0x1.a8p-1, 0x1.823c16551a3c2p-3, -0x1.1232ce70be781p-57, 0.0},
    {0x1.a6p-1, 0x1.8beafeb38fe8cp-3, 0x1.55aa8b6997a4p-58, 0.0},
    {0x1.a2p-1, 0x1.9f6c407089664p-3, 0x1.35a19605e67efp-59, 0.0},
    {0x1.ap-1, 0x1.a93ed3c8ad9e3p-3, 0x1.bcafa9de97203p-57, 0.0},
    {0x1.9ep-1, 0x1.b31d8575bce3dp-3, -0x1.6353ab386a94dp-57, 0.0},
    {0x1.9ap-1, 0x1.c6ffbc6f00f71p-3, -0x1.8e58b2c57a4a5p-57, 0.0},
    {0x1.98p-1, 0x1.d1037f2655e7bp-3, 0x1.60629242471a2p-57, 0.0},
    {0x1.96p-1, 0x1.db13db0d4894p-3, 0x1.aa11d49f96cb8p-58, 0.0},
    {0x1.94p-1, 0x1.e530effe71012p-3, 0x1.2276041f43042p-59, 0.0},
    {0x1.9p-1, 0x1.f991c6cb3b379p-3, 0x1.f665066f980a2p-57, 0.0},
    {0x1.8ep-1, 0x1.01eae5626c691p-2, -0x1.18290bd2932e2p-59, 0.0},
    {0x1.8cp-1, 0x1.07138604d5862p-2, 0x1.cdb16ed4e9138p-56, 0.0},
    {0x1.8ap-1, 0x1.0c42d676162e3p-2, 0x1.162c79d5d11eep-58, 0.0},
    {0x1.88p-1, 0x1.1178e8227e47cp-2, -0x1.0e63a5f01c691p-57, 0.0},
    {0x1.84p-1, 0x1.1bf99635a6b95p-2, -0x1.12aeb84249223p-57, 0.0},
    {0x1.82p-1, 0x1.214456d0eb8d4p-2, 0x1.f7ae91aeba60ap-57, 0.0},
    {0x1.8p-1, 0x1.269621134db92p-2, 0x1.e0efadd9db02bp-56, 0.0},
    {0x1.7ep-1, 0x1.2bef07cdc9354p-2, -0x1.82dad7fd86088p-56, 0.0},
    {0x1.7cp-1, 0x1.314f1e1d35ce4p-2, -0x1.3d69909e5c3dcp-56, 0.0},
    {0x1.7ap-1, 0x1.36b6776be1117p-2, -0x1.324f0e883858ep-58, 0.0},
    {0x1.78p-1, 0x1.3c25277333184p-2, -0x1.2ad27e50a8ec6p-56, 0.0},
    {0x1.76p-1, 0x1.419b423d5e8c7p-2, 0x1.0dbb243827392p-57, 0.0},
}};

bool libm_kernels_avx2() {
#if defined(BACKFI_LIBM_KERNELS_SIMD)
  return true;
#else
  return false;
#endif
}

}  // namespace detail

namespace {

void check_sizes(std::size_t n, std::size_t m, const char* what) {
  if (n != m) throw std::invalid_argument(what);
}

#if defined(BACKFI_LIBM_KERNELS_SIMD)

/// Elements per pass: the vector loop runs over a chunk, then the chunk's
/// fallback lanes go to libm while x is still in L1.
constexpr std::size_t kChunk = 256;

/// Lanes kept by certify lie at least 1/32 ULP from a rounding midpoint:
/// |rem| <= (1/2 - 1/32) ULP, tested as RN(hi + rem / (1 - 1/16)) == hi.
/// glibc's sin/cos/log stay within 0.5 + 0.018 ULP of the true value and
/// the double-double within 2^-9 ULP, so 1/32 leaves room for both.
constexpr double kWiden = 16.0 / 15.0;

/// kLaneLut.lanes[m] lists the set lanes of the 4-bit mask m, in order.
struct lane_lut {
  alignas(16) std::int32_t lanes[16][4];
  constexpr lane_lut() : lanes{} {
    for (int m = 0; m < 16; ++m) {
      int n = 0;
      for (int b = 0; b < 4; ++b)
        if (m & (1 << b)) lanes[m][n++] = b;
    }
  }
};
constexpr lane_lut kLaneLut;

/// Appends base + lane for every lane set in `mask` to idx[n...]; returns
/// the new count. Always writes four slots, so idx needs 3 spare.
inline std::size_t append_lanes(std::uint32_t* idx, std::size_t n, int mask,
                                std::size_t base) {
  const __m128i lanes = _mm_load_si128(
      reinterpret_cast<const __m128i*>(kLaneLut.lanes[mask]));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(idx + n),
                   _mm_add_epi32(lanes, _mm_set1_epi32(static_cast<int>(base))));
  return n + static_cast<std::size_t>(__builtin_popcount(mask));
}

inline __m256d abs_pd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// Lanes whose double-double hi + rem (hi = RN(hi + rem)) certainly round
/// like glibc: hi + rem * kWiden still rounds to hi, i.e. |rem| is at most
/// 15/32 of the gap to hi's neighbour on rem's side (below a power of two
/// that gap is half the one above, and the test sees the right one). NaN
/// fails the comparison.
inline __m256d certify(__m256d hi, __m256d rem) {
  return _mm256_cmp_pd(_mm256_fmadd_pd(rem, _mm256_set1_pd(kWiden), hi), hi,
                       _CMP_EQ_OQ);
}

/// Rows row[0..3] of a table of 4-double rows, as columns:
/// c0[l] = table[row[l]][0], ... The row numbers leave the vector unit
/// by extraction, not through memory: a 256-bit store read back as
/// 64-bit loads defeats store forwarding.
inline void load_rows(const double* table, __m256i row, __m256d& c0,
                      __m256d& c1, __m256d& c2, __m256d& c3) {
  const __m128i row01 = _mm256_castsi256_si128(row);
  const __m128i row23 = _mm256_extracti128_si256(row, 1);
  const double* r0 = table + 4 * _mm_cvtsi128_si64(row01);
  const double* r1 = table + 4 * _mm_extract_epi64(row01, 1);
  const double* r2 = table + 4 * _mm_cvtsi128_si64(row23);
  const double* r3 = table + 4 * _mm_extract_epi64(row23, 1);
  const __m256d lo02 = _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_load_pd(r0)), _mm_load_pd(r2), 1);
  const __m256d lo13 = _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_load_pd(r1)), _mm_load_pd(r3), 1);
  const __m256d hi02 = _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_load_pd(r0 + 2)), _mm_load_pd(r2 + 2), 1);
  const __m256d hi13 = _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_load_pd(r1 + 2)), _mm_load_pd(r3 + 2), 1);
  c0 = _mm256_unpacklo_pd(lo02, lo13);
  c1 = _mm256_unpackhi_pd(lo02, lo13);
  c2 = _mm256_unpacklo_pd(hi02, hi13);
  c3 = _mm256_unpackhi_pd(hi02, hi13);
}

// --- sincos -----------------------------------------------------------
//
// x = k*pi/128 + t + tl with k = round(x * 128/pi). pi/128 = P1 + P2 to
// ~2^-115: x - k*P1 is exact in one fmsub (both lie on a 2^-58 grid and
// the difference is below 2^-5), k*P2 is split exactly, and the dropped
// k*2^-115 is below 2^-92 for |x| <= kSinCosMaxArg. With
// (S, C) = sin/cos(k*pi/128) from the table (by k mod 256):
//   sin x = S + C*t + [S*(cos t - 1) + C*(sin t - t) + C*tl]
//   cos x = C - S*t + [C*(cos t - 1) - S*(sin t - t) - S*tl]
// where |t| <= pi/256, so the Taylor tails below reach 2^-75.

constexpr double kInvPio128 = 0x1.45f306dc9c883p+5;
constexpr double kPio128Hi = 0x1.921fb54442d18p-6;
constexpr double kPio128Lo = 0x1.1a62633145c07p-60;
/// Beyond this k = round(x*128/pi) could exceed 2^23 and the dropped
/// pi/128 tail would matter; such arguments go to libm.
constexpr double kSinCosMaxArg = 0x1p17;
/// Reductions this small lose relative accuracy next to a zero of sin or
/// cos (and cover x = 0); they go to libm.
constexpr double kSinCosMinReduced = 0x1p-20;

inline void sincos4(const double* x, double* sn, double* cs, int& sin_bad,
                    int& cos_bad) {
  const __m256d vx = _mm256_loadu_pd(x);
  const __m256d shifter = _mm256_set1_pd(0x1.8p52);
  const __m256d kdsh = _mm256_fmadd_pd(vx, _mm256_set1_pd(kInvPio128), shifter);
  const __m256d kd = _mm256_sub_pd(kdsh, shifter);
  const __m256d a = _mm256_fnmadd_pd(kd, _mm256_set1_pd(kPio128Hi), vx);
  const __m256d b = _mm256_mul_pd(kd, _mm256_set1_pd(kPio128Lo));
  const __m256d bl = _mm256_fmsub_pd(kd, _mm256_set1_pd(kPio128Lo), b);
  const __m256d t = _mm256_sub_pd(a, b);
  // |a| >= |b| on every lane that passes the kSinCosMinReduced check, so
  // this is the exact fast two-sum error of a - b.
  const __m256d tl = _mm256_sub_pd(_mm256_sub_pd(_mm256_sub_pd(a, t), b), bl);
  const __m256d in_range = _mm256_and_pd(
      _mm256_cmp_pd(abs_pd(vx), _mm256_set1_pd(kSinCosMaxArg), _CMP_LE_OQ),
      _mm256_cmp_pd(abs_pd(t), _mm256_set1_pd(kSinCosMinReduced), _CMP_GE_OQ));

  // k mod 256 from the shifter's low mantissa bits (garbage but in range
  // on lanes that fail in_range).
  __m256d s_hi, c_hi, s_lo, c_lo;
  load_rows(detail::sincos_table[0].data(),
            _mm256_and_si256(_mm256_castpd_si256(kdsh), _mm256_set1_epi64x(255)),
            s_hi, c_hi, s_lo, c_lo);

  const __m256d t2 = _mm256_mul_pd(t, t);
  // cos t - 1 and sin t - t.
  __m256d pc = _mm256_fmadd_pd(t2, _mm256_set1_pd(0x1.a01a01a01a01ap-16),
                               _mm256_set1_pd(-0x1.6c16c16c16c17p-10));
  pc = _mm256_fmadd_pd(t2, pc, _mm256_set1_pd(0x1.5555555555555p-5));
  pc = _mm256_fmadd_pd(t2, pc, _mm256_set1_pd(-0.5));
  pc = _mm256_mul_pd(t2, pc);
  __m256d ps = _mm256_fmadd_pd(t2, _mm256_set1_pd(-0x1.a01a01a01a01ap-13),
                               _mm256_set1_pd(0x1.1111111111111p-7));
  ps = _mm256_fmadd_pd(t2, ps, _mm256_set1_pd(-0x1.5555555555555p-3));
  ps = _mm256_mul_pd(_mm256_mul_pd(t, t2), ps);

  // sin: S + C*t as a fast two-sum (|S| >= |C*t| unless S = 0).
  const __m256d ph = _mm256_mul_pd(c_hi, t);
  const __m256d pl = _mm256_fmsub_pd(c_hi, t, ph);
  const __m256d sh = _mm256_add_pd(s_hi, ph);
  __m256d lo = _mm256_sub_pd(ph, _mm256_sub_pd(sh, s_hi));
  lo = _mm256_add_pd(_mm256_add_pd(lo, pl), s_lo);
  lo = _mm256_fmadd_pd(c_lo, t, lo);
  lo = _mm256_fmadd_pd(c_hi, tl, lo);
  lo = _mm256_fmadd_pd(s_hi, pc, lo);
  lo = _mm256_fmadd_pd(c_hi, ps, lo);
  const __m256d sin_hi = _mm256_add_pd(sh, lo);
  const __m256d sin_rem = _mm256_sub_pd(lo, _mm256_sub_pd(sin_hi, sh));

  // cos: C - S*t (|C| >= |S*t| unless C = 0).
  const __m256d qh = _mm256_mul_pd(s_hi, t);
  const __m256d ql = _mm256_fmsub_pd(s_hi, t, qh);
  const __m256d ch = _mm256_sub_pd(c_hi, qh);
  lo = _mm256_sub_pd(_mm256_sub_pd(c_hi, ch), qh);
  lo = _mm256_add_pd(_mm256_sub_pd(lo, ql), c_lo);
  lo = _mm256_fnmadd_pd(s_lo, t, lo);
  lo = _mm256_fnmadd_pd(s_hi, tl, lo);
  lo = _mm256_fmadd_pd(c_hi, pc, lo);
  lo = _mm256_fnmadd_pd(s_hi, ps, lo);
  const __m256d cos_hi = _mm256_add_pd(ch, lo);
  const __m256d cos_rem = _mm256_sub_pd(lo, _mm256_sub_pd(cos_hi, ch));

  _mm256_storeu_pd(sn, sin_hi);
  _mm256_storeu_pd(cs, cos_hi);
  sin_bad = _mm256_movemask_pd(_mm256_and_pd(in_range, certify(sin_hi, sin_rem))) ^ 0xf;
  cos_bad = _mm256_movemask_pd(_mm256_and_pd(in_range, certify(cos_hi, cos_rem))) ^ 0xf;
}

// --- log --------------------------------------------------------------
//
// x = 2^k z with z in [0x1.6p-1, 0x1.6p0), so values near 1 keep k = 0.
// The top 7 mantissa bits of x - 0x1.6p-1 pick the table row; r =
// z*invc - 1 is exact (|r| < 2^-7 on a 2^-60 grid), and
//   log x = k*ln2 + logc + log1p(r),  log1p(r) = r - r^2/2 + r^3*q(r)
// with q the degree-6 Taylor polynomial (tail below 2^-66 |r|).

constexpr std::int64_t kLogOff = 0x3fe6000000000000;
constexpr double kLn2Hi = 0x1.62e42fefa38p-1;  // 42 bits: k*kLn2Hi is exact
constexpr double kLn2Lo = 0x1.ef35793c7673p-45;

inline int log4(const double* x, double* out) {
  const __m256d vx = _mm256_loadu_pd(x);
  const __m256d in_range = _mm256_and_pd(
      _mm256_cmp_pd(vx, _mm256_set1_pd(0x1p-1022), _CMP_GE_OQ),
      _mm256_cmp_pd(vx, _mm256_set1_pd(HUGE_VAL), _CMP_LT_OQ));
  const __m256i ix = _mm256_castpd_si256(vx);
  const __m256i tmp = _mm256_sub_epi64(ix, _mm256_set1_epi64x(kLogOff));
  // k = tmp >> 52 (arithmetic): bias it to k + 2048 in [0, 4096) and
  // read it out of the mantissa of 2^52.
  const __m256i kb = _mm256_srli_epi64(
      _mm256_xor_si256(tmp, _mm256_set1_epi64x(INT64_MIN)), 52);
  const __m256d kd = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(kb, _mm256_set1_epi64x(0x4330000000000000))),
      _mm256_set1_pd(0x1p52 + 2048.0));
  const __m256d z = _mm256_castsi256_pd(_mm256_sub_epi64(
      ix, _mm256_and_si256(tmp, _mm256_set1_epi64x(INT64_C(-4503599627370496)))));

  __m256d invc, logc_hi, logc_lo, unused;
  load_rows(detail::log_table[0].data(),
            _mm256_and_si256(_mm256_srli_epi64(tmp, 45), _mm256_set1_epi64x(127)),
            invc, logc_hi, logc_lo, unused);
  const __m256d r = _mm256_fmsub_pd(z, invc, _mm256_set1_pd(1.0));

  // k*ln2 + logc: k = 0 or |k*ln2| > |logc|, so a fast two-sum.
  const __m256d a = _mm256_mul_pd(kd, _mm256_set1_pd(kLn2Hi));
  const __m256d s1 = _mm256_add_pd(a, logc_hi);
  __m256d lo = _mm256_sub_pd(logc_hi, _mm256_sub_pd(s1, a));
  // r - r^2/2, a fast two-sum (r^2/2 < |r|/256).
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r2l = _mm256_fmsub_pd(r, r, r2);
  const __m256d h2 = _mm256_mul_pd(r2, _mm256_set1_pd(-0.5));
  const __m256d u = _mm256_add_pd(r, h2);
  lo = _mm256_add_pd(lo, _mm256_sub_pd(h2, _mm256_sub_pd(u, r)));
  // s1 + u, a fast two-sum: s1 = 0 or |s1| >= |u|. k != 0 gives
  // |s1| > 0.3 > 2^-7 > |u|; on a row with invc != 1, |logc| exceeds the
  // row's largest |r| (LibmKernelsTest.TablesMatchLibquadmath checks it).
  const __m256d s = _mm256_add_pd(s1, u);
  lo = _mm256_add_pd(lo, _mm256_sub_pd(u, _mm256_sub_pd(s, s1)));
  __m256d q = _mm256_fmadd_pd(r, _mm256_set1_pd(0x1.c71c71c71c71cp-4),
                              _mm256_set1_pd(-0x1p-3));
  q = _mm256_fmadd_pd(r, q, _mm256_set1_pd(0x1.2492492492492p-3));
  q = _mm256_fmadd_pd(r, q, _mm256_set1_pd(-0x1.5555555555555p-3));
  q = _mm256_fmadd_pd(r, q, _mm256_set1_pd(0x1.999999999999ap-3));
  q = _mm256_fmadd_pd(r, q, _mm256_set1_pd(-0x1p-2));
  q = _mm256_fmadd_pd(r, q, _mm256_set1_pd(0x1.5555555555555p-2));
  lo = _mm256_fmadd_pd(r2l, _mm256_set1_pd(-0.5), lo);
  lo = _mm256_fmadd_pd(kd, _mm256_set1_pd(kLn2Lo), lo);
  lo = _mm256_add_pd(lo, logc_lo);
  lo = _mm256_fmadd_pd(_mm256_mul_pd(r2, r), q, lo);
  const __m256d hi = _mm256_add_pd(s, lo);
  const __m256d rem = _mm256_sub_pd(lo, _mm256_sub_pd(hi, s));

  _mm256_storeu_pd(out, hi);
  return _mm256_movemask_pd(_mm256_and_pd(in_range, certify(hi, rem))) ^ 0xf;
}

#endif  // BACKFI_LIBM_KERNELS_SIMD

}  // namespace

std::size_t sincos_block(std::span<const double> x, std::span<double> sn,
                         std::span<double> cs) {
  const std::size_t n = x.size();
  check_sizes(n, sn.size(), "sincos_block: sn.size() != x.size()");
  check_sizes(n, cs.size(), "sincos_block: cs.size() != x.size()");
#if defined(BACKFI_LIBM_KERNELS_SIMD)
  std::size_t libm = 0;
  std::uint32_t sin_idx[kChunk + 3], cos_idx[kChunk + 3];
  for (std::size_t c = 0; c < n; c += kChunk) {
    const std::size_t m = std::min(kChunk, n - c);
    std::size_t ns = 0, nc = 0, k = 0;
    for (; k + 4 <= m; k += 4) {
      int sin_bad, cos_bad;
      sincos4(&x[c + k], &sn[c + k], &cs[c + k], sin_bad, cos_bad);
      ns = append_lanes(sin_idx, ns, sin_bad, k);
      nc = append_lanes(cos_idx, nc, cos_bad, k);
    }
    for (; k < m; ++k) sin_idx[ns++] = cos_idx[nc++] = static_cast<std::uint32_t>(k);
    for (std::size_t f = 0; f < ns; ++f)
      sn[c + sin_idx[f]] = std::sin(x[c + sin_idx[f]]);
    for (std::size_t f = 0; f < nc; ++f)
      cs[c + cos_idx[f]] = std::cos(x[c + cos_idx[f]]);
    libm += ns + nc;
  }
  return libm;
#else
  for (std::size_t i = 0; i < n; ++i) sin_cos(x[i], sn[i], cs[i]);
  return 2 * n;
#endif
}

std::size_t log_block(std::span<const double> x, std::span<double> out) {
  const std::size_t n = x.size();
  check_sizes(n, out.size(), "log_block: out.size() != x.size()");
#if defined(BACKFI_LIBM_KERNELS_SIMD)
  std::size_t libm = 0;
  std::uint32_t idx[kChunk + 3];
  for (std::size_t c = 0; c < n; c += kChunk) {
    const std::size_t m = std::min(kChunk, n - c);
    std::size_t nf = 0, k = 0;
    for (; k + 4 <= m; k += 4)
      nf = append_lanes(idx, nf, log4(&x[c + k], &out[c + k]), k);
    for (; k < m; ++k) idx[nf++] = static_cast<std::uint32_t>(k);
    for (std::size_t f = 0; f < nf; ++f) out[c + idx[f]] = std::log(x[c + idx[f]]);
    libm += nf;
  }
  return libm;
#else
  for (std::size_t i = 0; i < n; ++i) out[i] = std::log(x[i]);
  return n;
#endif
}

}  // namespace backfi::dsp
